// Command ruleserver serves association-rule recommendations over HTTP from
// frequent itemsets saved by `apriori -save`.  Rules are generated at
// startup, indexed by their antecedents' first items, and served lock-free
// from an atomic snapshot; re-mining the data and then sending SIGHUP (or
// POST /reload) hot-swaps the fresh rules in with zero downtime.
//
// Single-node usage:
//
//	apriori -minsup 0.001 -save freq.txt t15i6.dat
//	ruleserver -load freq.txt -minconf 0.8 -addr :8080
//
//	curl 'localhost:8080/recommend?items=3,4&k=5'
//	curl 'localhost:8080/rules?item=3&limit=20'
//	curl 'localhost:8080/metrics'
//	curl -X POST 'localhost:8080/reload'      # or: kill -HUP <pid>
//
// Multi-node usage — the same binary runs the distributed tier.  Start one
// process per node, then a router that owns the rule set and shards it
// across them:
//
//	ruleserver -node -addr :9001 &
//	ruleserver -node -addr :9002 &
//	ruleserver -router -nodes localhost:9001,localhost:9002 -replicas 2 \
//	    -load freq.txt -minconf 0.8 -addr :8080
//
// -replicas R places every shard on its top-R nodes, so with R=2 any single
// node can die without a shard going dark: the router's failure detector
// marks it down, queries fail over to the surviving copy, and a background
// prober notices when it comes back.  -timeout bounds every router→node
// call; a leg that misses the deadline is retried once on the next live
// replica, and slow (not dead) nodes are raced by hedged requests.
//
//	curl 'localhost:8080/recommend?items=3,4&k=5'   # scatter-gather top-K
//	curl 'localhost:8080/placement'                 # shard → node map
//	curl 'localhost:8080/metrics'                   # fleet-wide metrics
//	curl -X POST 'localhost:8080/reload'            # delta publish (add ?full=1
//	                                                # for a full rebuild); or
//	                                                # kill -HUP <router pid>
//
// Node processes need no -load: the router ships each node the antecedent
// groups its shards own, and on reload ships only the groups whose canonical
// bytes changed.  Answers are bit-identical to the single-node server over
// the same rule set.  No flag has to be repeated across the fleet for that:
// placement flags are the router's alone, -workers and -cache change a
// node's speed but not its answers, and every mode caps k at the same
// built-in 100.
//
// Endpoints (single node and per-node): GET /recommend, /rules, /healthz,
// /metrics, /debug/flight, POST /reload; node mode adds POST /shard/prepare,
// /shard/commit, GET /shard/state.  Router: GET /recommend, /healthz,
// /metrics, /placement, /debug/flight, POST /reload.
//
// Observability: /metrics answers JSON by default and Prometheus text
// exposition when the request carries Accept: text/plain — point a
// Prometheus scrape job straight at it in every mode:
//
//	curl -H 'Accept: text/plain' 'localhost:8080/metrics'
//
// Every mode also runs an always-on flight recorder: a bounded ring of the
// most recently completed request/publish spans.  GET /debug/flight dumps it
// as Perfetto-loadable JSON (?format=attrib for the cost-attribution table),
// and the /metrics JSON carries per-bucket latency exemplars whose span IDs
// resolve against the dump — a slow p99 query traces back to its causal
// spans (cache miss, fan-out legs) without any tracing having been enabled
// in advance:
//
//	curl 'localhost:8080/debug/flight' > flight.json
//
// Every listener bounds how long a client may take to send a request or
// hold an idle connection.  SIGTERM or SIGINT drains the process in every
// mode: /healthz turns 503, the listener closes, requests in flight finish
// (up to ten seconds), and the exit status is 0.
//
// -pprof ADDR additionally serves net/http/pprof on a separate listener
// (keep it on localhost; it is operator-only):
//
//	ruleserver -load freq.txt -addr :8080 -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only by -pprof's listener
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"parapriori"
	"parapriori/internal/distserve"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		load    = flag.String("load", "", "frequent itemsets saved by apriori -save (required unless -node)")
		minconf = flag.Float64("minconf", 0.8, "minimum confidence for generated rules")
		workers = flag.Int("workers", 0, "query worker pool size (0 = inline execution)")
		cache   = flag.Int("cache", 0, "query cache entries (0 = default, negative = disabled)")

		nodeMode   = flag.Bool("node", false, "run as a shard node: serve shards assigned by a router, no -load needed")
		routerMode = flag.Bool("router", false, "run as the router: shard -load rules across -nodes and scatter-gather queries")
		nodeList   = flag.String("nodes", "", "comma-separated node base URLs (router mode, required)")
		cshards    = flag.Int("cluster-shards", 0, "shards to distribute across the nodes (router mode, 0 = default)")
		seed       = flag.Uint64("seed", 0, "placement hash seed (router mode, 0 = fixed default)")
		replicas   = flag.Int("replicas", 1, "copies of each shard across the nodes (router mode; 2 survives any single node failure)")
		timeout    = flag.Duration("timeout", 0, "per-call deadline for router→node requests (router mode, 0 = default)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; off by default)")
	)
	flag.Parse()
	if *nodeMode && *routerMode {
		fmt.Fprintln(os.Stderr, "ruleserver: -node and -router are mutually exclusive")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		// The profiling surface stays off the serving listener: it is
		// operator-only, typically bound to localhost while the API is not.
		go func() {
			log.Printf("ruleserver: pprof on http://%s/debug/pprof/", *pprofAddr)
			srv := newHTTPServer(nil)
			srv.Addr = *pprofAddr
			// net/http leaves the whole-request read deadline armed while
			// the handler runs and cancels the request's context when it
			// fires; pprof's profile and trace handlers sleep on that
			// context, so ?seconds=60 would be cut to readTimeout.
			srv.ReadTimeout = 0
			log.Fatal(srv.ListenAndServe())
		}()
	}

	sopt := serve.Options{Workers: *workers, CacheSize: *cache}

	if *nodeMode {
		runNode(*addr, sopt)
		return
	}
	if *routerMode {
		copt := distserve.Options{
			Shards:         *cshards,
			Seed:           *seed,
			Replicas:       *replicas,
			RequestTimeout: *timeout,
			Node:           sopt,
		}
		runRouter(*addr, *load, *minconf, *nodeList, copt)
		return
	}

	if *load == "" {
		fmt.Fprintln(os.Stderr, "ruleserver: -load <saved result> is required")
		flag.Usage()
		os.Exit(2)
	}
	opt := parapriori.ServeOptions(sopt)
	build := func() (*parapriori.RuleIndex, error) {
		rs, err := loadRules(*load, *minconf)
		if err != nil {
			return nil, err
		}
		return parapriori.BuildIndex(rs, opt), nil
	}

	srv := parapriori.NewServer(opt)
	defer srv.Close()
	ix, err := build()
	if err != nil {
		log.Fatalf("ruleserver: %v", err)
	}
	gen := srv.Publish(ix)
	log.Printf("ruleserver: serving %d rules (generation %d) on %s", ix.NumRules(), gen, *addr)

	onHUP(func() {
		ix, err := build()
		if err != nil {
			log.Printf("ruleserver: SIGHUP reload failed: %v", err)
			return
		}
		gen := srv.Publish(ix)
		log.Printf("ruleserver: SIGHUP reloaded %d rules (generation %d)", ix.NumRules(), gen)
	})

	if err := serveUntilSignal(*addr, srv.Handler(build)); err != nil {
		log.Fatalf("ruleserver: %v", err)
	}
}

// Listener limits.  A client that trickles its request, or parks an idle
// keep-alive connection, holds a goroutine and a descriptor; these bound
// for how long.  There is no write timeout: /debug/pprof/profile and a large
// /rules page legitimately take long to send.  readTimeout also ends the
// request's context that long after the request began; no serving handler
// reads it, and the pprof listener, whose handlers do, runs without one.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // whole request, a node's publish body included
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 10 * time.Second // in-flight requests get this long after SIGTERM
)

// newHTTPServer is the one place a listener of this command is configured.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveUntilSignal serves h on addr until SIGTERM or SIGINT, then drains:
// /healthz turns 503 so a balancer takes the process out of rotation, the
// listener closes, and requests already in flight get drainTimeout to
// complete.  It returns nil after a clean drain.
func serveUntilSignal(addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("ruleserver: listening on %s", ln.Addr())
	var draining atomic.Bool
	srv := newHTTPServer(drainHealthz(h, &draining))
	// Signals and the accept loop are real-OS territory, like onHUP.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case sig := <-stop:
		log.Printf("ruleserver: %v: draining", sig)
		draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// drainHealthz is h, except that /healthz answers 503 once draining is set.
func drainHealthz(h http.Handler, draining *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && draining.Load() {
			serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		h.ServeHTTP(w, r)
	})
}

// loadRules reads a saved mining result and generates rules from it.
func loadRules(path string, minconf float64) ([]rules.Rule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parapriori.ReadResult(f)
	if err != nil {
		return nil, err
	}
	return parapriori.GenerateRules(res, minconf)
}

// runNode serves shards on behalf of a router.  The node starts empty and
// receives its content through the publish protocol.
func runNode(addr string, sopt serve.Options) {
	n := distserve.NewNode(addr, sopt)
	defer n.Close()
	log.Printf("ruleserver: node awaiting shard assignments on %s", addr)
	if err := serveUntilSignal(addr, distserve.NodeHandler(n)); err != nil {
		log.Fatalf("ruleserver: %v", err)
	}
}

// runRouter shards the rule set across the node fleet and serves
// scatter-gather queries.  SIGHUP (or POST /reload) regenerates the rules
// and publishes the delta.
func runRouter(addr, load string, minconf float64, nodeList string, opt distserve.Options) {
	if load == "" {
		fmt.Fprintln(os.Stderr, "ruleserver: -router requires -load <saved result>")
		os.Exit(2)
	}
	if strings.TrimSpace(nodeList) == "" {
		fmt.Fprintln(os.Stderr, "ruleserver: -router requires -nodes <url,url,...>")
		os.Exit(2)
	}
	var clients []distserve.Client
	for _, raw := range strings.Split(nodeList, ",") {
		if raw = strings.TrimSpace(raw); raw != "" {
			clients = append(clients, distserve.NewHTTPClient(raw, opt.RequestTimeout))
		}
	}
	router, err := distserve.NewRouter(clients, opt)
	if err != nil {
		log.Fatalf("ruleserver: %v", err)
	}
	// The background prober is what notices a dead node recovering without
	// waiting for a live query to stumble into it.  It earns its keep at any
	// R (a healed node rejoins the rotation), so start it unconditionally.
	router.StartProber()
	defer router.StopProber()

	reload := func() ([]rules.Rule, error) { return loadRules(load, minconf) }
	rs, err := reload()
	if err != nil {
		log.Fatalf("ruleserver: %v", err)
	}
	stats, err := router.Publish(rs, true)
	if err != nil {
		log.Fatalf("ruleserver: initial publish: %v", err)
	}
	log.Printf("ruleserver: router on %s — %d rules in %d groups over %d nodes (%d shards × %d replicas, generation %d)",
		addr, len(rs), stats.Groups, stats.Nodes, len(router.Placement()), router.Metrics().Replicas, stats.Gen)

	onHUP(func() {
		rs, err := reload()
		if err != nil {
			log.Printf("ruleserver: SIGHUP reload failed: %v", err)
			return
		}
		stats, err := router.Publish(rs, false)
		if err != nil {
			log.Printf("ruleserver: SIGHUP publish: %v", err)
			return
		}
		log.Printf("ruleserver: SIGHUP published generation %d (delta: %d upserts, %d removes, %d bytes)",
			stats.Gen, stats.Upserts, stats.Removes, stats.Bytes)
	})

	if err := serveUntilSignal(addr, router.Handler(reload)); err != nil {
		log.Fatalf("ruleserver: %v", err)
	}
}

// onHUP runs f on every SIGHUP.  A plain signal channel is the idiomatic
// shape here; this is real-OS territory, outside the simulation's
// determinism rules.
func onHUP(f func()) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			f()
		}
	}()
}

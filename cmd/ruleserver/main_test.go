package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"parapriori"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// TestMain lets the test binary stand in for the command: re-executed with
// RULESERVER_TEST_MAIN set it runs main() on its arguments, so the tests
// drive the real flag parsing, listeners, signal handling and exit status
// without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("RULESERVER_TEST_MAIN") == "1" {
		// The command's flags alone: -h must not list the test binary's.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs the command to completion — for the paths that exit instead of
// serving — and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "ruleserver" // the name flag's usage line prints
	cmd.Env = append(os.Environ(), "RULESERVER_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("ruleserver %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// TestGoldenCLI pins the command's flag surface: the -h listing of every
// flag with its default and help text.
func TestGoldenCLI(t *testing.T) {
	code, stdout, stderr := run(t, "-h")
	got := fmt.Sprintf("$ ruleserver -h\nexit %d\n%s%s", code, stdout, stderr)

	const golden = "testdata/cli.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output moved (rerun with -update only if the change is meant):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestUsageErrors pins the misuse paths, each exit 2 before anything
// listens: the two exclusive modes together, a router missing its rules or
// its nodes, a single server missing its rules, and the retired -shards
// flag.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-node", "-router"}, "-node and -router are mutually exclusive"},
		{[]string{"-router", "-nodes", "localhost:1"}, "-router requires -load"},
		{[]string{"-router", "-load", "freq.txt"}, "-router requires -nodes"},
		{nil, "-load <saved result> is required\nUsage of ruleserver:"},
		{[]string{"-shards", "4", "-load", "freq.txt"}, "flag provided but not defined: -shards"},
	} {
		code, _, stderr := run(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("ruleserver %v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.want)
		}
	}
}

var listening = regexp.MustCompile(`ruleserver: listening on (\S+)`)

// proc is one running ruleserver.
type proc struct {
	cmd    *exec.Cmd
	addr   string         // what it reported listening on
	stderr *bufio.Scanner // positioned after the "listening" line
	log    strings.Builder
}

// start launches ruleserver on an ephemeral port and reads its stderr until
// it reports the address it listens on.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{}
	p.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Env = append(os.Environ(), "RULESERVER_TEST_MAIN=1")
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.cmd.Process.Kill() })
	// A process that neither listens nor exits is killed, which ends the read.
	hung := time.AfterFunc(30*time.Second, func() { _ = p.cmd.Process.Kill() })
	defer hung.Stop()
	p.stderr = bufio.NewScanner(pipe)
	for p.stderr.Scan() {
		p.log.WriteString(p.stderr.Text() + "\n")
		if m := listening.FindStringSubmatch(p.stderr.Text()); m != nil {
			p.addr = m[1]
			return p
		}
	}
	t.Fatalf("ruleserver %v exited before listening:\n%s", args, p.log.String())
	return nil
}

// wait reads the rest of stderr — it ends when the process does — and
// returns how the process exited.
func (p *proc) wait() error {
	hung := time.AfterFunc(30*time.Second, func() { _ = p.cmd.Process.Kill() })
	defer hung.Stop()
	for p.stderr.Scan() {
		p.log.WriteString(p.stderr.Text() + "\n")
	}
	return p.cmd.Wait()
}

// get is a one-shot GET (no connection reuse) returning status and body.
func get(addr, path string) (int, string, error) {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// savedResult mines a small generated dataset and saves its frequent
// itemsets the way `apriori -save` does.
func savedResult(t *testing.T) string {
	t.Helper()
	gen := parapriori.DefaultGen()
	gen.NumTransactions = 1500
	gen.NumItems = 60
	gen.NumPatterns = 40
	gen.AvgTxnLen = 8
	gen.AvgPatternLen = 4
	gen.Seed = 5
	data, err := parapriori.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parapriori.Mine(data, parapriori.MineOptions{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "freq.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := parapriori.WriteResult(f, res); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDrainOnSIGTERM starts the command in each mode, puts it under
// traffic, and sends SIGTERM while one request is half sent.  The drain
// contract: that request — in flight when the signal landed — is answered in
// full, every answer that did arrive during the drain is whole, and the
// process exits 0.
func TestDrainOnSIGTERM(t *testing.T) {
	load := savedResult(t)
	modes := []struct {
		name  string
		start func(t *testing.T) *proc
	}{
		{"single", func(t *testing.T) *proc { return start(t, "-load", load, "-minconf", "0.5") }},
		{"node", func(t *testing.T) *proc { return start(t, "-node") }},
		{"router", func(t *testing.T) *proc {
			node := start(t, "-node")
			return start(t, "-router", "-nodes", "http://"+node.addr, "-load", load, "-minconf", "0.5")
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			p := mode.start(t)
			if mode.name != "node" { // a node serves nothing until a router publishes to it
				for _, path := range []string{"/healthz", "/recommend?items=1,2,3&k=5"} {
					if code, body, err := get(p.addr, path); err != nil || code != http.StatusOK {
						t.Fatalf("%s before the signal: %d %q %v", path, code, body, err)
					}
				}
			}

			// Background traffic.  Once the listener closes a GET may be
			// refused; one that is answered must be answered whole.
			var stop atomic.Bool
			var clients sync.WaitGroup
			var answered, broken atomic.Int64
			for c := 0; c < 2; c++ {
				clients.Add(1)
				go func() {
					defer clients.Done()
					for !stop.Load() {
						code, body, err := get(p.addr, "/metrics")
						switch {
						case err == nil && code == http.StatusOK && strings.HasSuffix(body, "}\n"):
							answered.Add(1)
						case err == nil:
							broken.Add(1)
							t.Errorf("/metrics under drain: %d %q", code, body)
						}
					}
				}()
			}

			// One request held half sent: its connection is active, not idle.
			conn, err := net.Dial("tcp", p.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: ruleserver\r\n"); err != nil {
				t.Fatal(err)
			}
			for answered.Load() < 20 { // the signal lands mid-traffic, not before it
				time.Sleep(time.Millisecond)
			}
			if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			// The listener closes; the process must now be waiting on conn.
			for {
				c, err := net.DialTimeout("tcp", p.addr, time.Second)
				if err != nil {
					break
				}
				c.Close()
				time.Sleep(time.Millisecond)
			}
			if _, err := io.WriteString(conn, "Connection: close\r\n\r\n"); err != nil {
				t.Fatalf("finishing the in-flight request: %v", err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("in-flight request dropped by the drain: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(string(body), "}\n") {
				t.Fatalf("in-flight request: %d %q %v", resp.StatusCode, body, err)
			}

			err = p.wait()
			stop.Store(true)
			clients.Wait()
			if err != nil {
				t.Fatalf("exit after SIGTERM: %v\n%s", err, p.log.String())
			}
			if !strings.Contains(p.log.String(), "terminated: draining") {
				t.Fatalf("no drain logged:\n%s", p.log.String())
			}
			if broken.Load() != 0 {
				t.Fatalf("%d of %d answers were cut short", broken.Load(), answered.Load()+broken.Load())
			}
		})
	}
}

// TestDrainHealthz: once draining, /healthz — and only /healthz — answers
// 503, so a balancer stops routing while in-flight work completes.
func TestDrainHealthz(t *testing.T) {
	var draining atomic.Bool
	h := drainHealthz(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "inner")
	}), &draining)
	status := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before draining: %d", got)
	}
	draining.Store(true)
	if got := status("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d, want 503", got)
	}
	if got := status("/recommend"); got != http.StatusOK {
		t.Fatalf("/recommend while draining: %d, want the inner handler's 200", got)
	}
}

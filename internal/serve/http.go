package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/rules"
)

// Answer is the body of a /recommend reply, at every serving tier: the
// generation that answered, the basket as the server canonicalised it, and
// the top-K rules.  "No matches" goes out as [] (never null), and a reader
// turns it back into the nil an in-process query returns.  The router's
// distserve.Result embeds it first, so its own fields follow these.
type Answer struct {
	Generation uint64          `json:"generation"`
	Basket     itemset.Itemset `json:"basket"`
	Rules      []rules.Rule    `json:"rules"`
}

// Handler returns the server's HTTP surface:
//
//	GET  /recommend?items=1,2,3&k=10   top-K rules for a basket
//	GET  /rules?item=5&limit=100       browse the served rule set
//	GET  /healthz                      liveness + generation
//	GET  /metrics                      Metrics as JSON; Prometheus text
//	                                   exposition when Accept: text/plain
//	GET  /debug/flight                 flight-ring dump: recent spans as
//	                                   Perfetto JSON (?format=attrib for the
//	                                   attribution table)
//	POST /reload                       rebuild via the reload callback and hot-swap
//
// reload supplies a freshly built Index on demand (typically re-reading the
// mined result file); nil disables /reload with 501.
func (s *Server) Handler(reload func() (*Index, error)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/recommend", Only(http.MethodGet, s.handleRecommend))
	mux.HandleFunc("/rules", Only(http.MethodGet, s.handleRules))
	mux.HandleFunc("/healthz", Only(http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/metrics", Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		WriteMetrics(w, r, s.Metrics, s.writeProm)
	}))
	mux.HandleFunc("/debug/flight", Only(http.MethodGet, s.handleFlight))
	mux.HandleFunc("/reload", Only(http.MethodPost, s.reloadHandler(reload)))
	return mux
}

// Only hands h the requests that use method and answers any other with 405
// and a {"error": "use <method>"} JSON body: the one method guard of every
// serving tier's endpoints.
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			WriteError(w, http.StatusMethodNotAllowed, "use %s", method)
			return
		}
		h(w, r)
	}
}

// WriteJSON answers with status and v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the response is already committed; nothing to do on error
}

// WriteError answers with status and a {"error": message} JSON body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseItems parses a comma-separated non-negative item list ("1,2,3").
func parseItems(raw string) ([]itemset.Item, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("empty items")
	}
	parts := strings.Split(raw, ",")
	out := make([]itemset.Item, 0, len(parts))
	for _, p := range parts {
		it, err := parseItem(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// parseItem parses one non-negative item id.  The bit size is Item's, so a
// value past int32 is refused instead of wrapping onto another item.
func parseItem(raw string) (itemset.Item, error) {
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad item %q", raw)
	}
	return itemset.Item(v), nil
}

// ParseRecommendQuery decodes a /recommend query: the basket from items
// (parseItems) and K from k, zero — the server's default — when absent.
// The error's text is the 400 body every serving tier answers with.
func ParseRecommendQuery(q url.Values) ([]itemset.Item, int, error) {
	basket, err := parseItems(q.Get("items"))
	if err != nil {
		return nil, 0, fmt.Errorf("items: %v", err)
	}
	k := 0
	if raw := q.Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 0 {
			return nil, 0, fmt.Errorf("bad k %q", raw)
		}
	}
	return basket, k, nil
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	basket, k, err := ParseRecommendQuery(q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out, gen, err := s.RecommendTraced(basket, k, sanitizeLink(q.Get("link")))
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if out == nil {
		out = []rules.Rule{}
	}
	WriteJSON(w, http.StatusOK, Answer{Generation: gen, Basket: itemset.New(basket...), Rules: out})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		WriteError(w, http.StatusServiceUnavailable, "%v", ErrNoSnapshot)
		return
	}
	limit := 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			WriteError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		limit = v
	}
	filterItem := itemset.Item(-1)
	if raw := r.URL.Query().Get("item"); raw != "" {
		it, err := parseItem(raw)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		filterItem = it
	}
	all := snap.idx.All()
	sel := make([]rules.Rule, 0, min(limit, len(all))) // limit is the client's: never size by it alone
	for _, rr := range all {
		if filterItem >= 0 && !rr.Antecedent.Contains(filterItem) && !rr.Consequent.Contains(filterItem) {
			continue
		}
		if len(sel) >= limit {
			break
		}
		sel = append(sel, rr)
	}
	WriteJSON(w, http.StatusOK, struct {
		Generation uint64       `json:"generation"`
		Total      int          `json:"total"`
		Rules      []rules.Rule `json:"rules"`
	}{Generation: snap.gen, Total: snap.idx.NumRules(), Rules: sel})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "empty", "generation": 0})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "generation": snap.gen})
}

// WriteMetrics answers a /metrics request at any serving tier: the
// Prometheus text exposition that prom writes when the Accept header names
// a text/plain or OpenMetrics media type (what Prometheus scrapers send),
// and metrics() as JSON otherwise — the default for bare GETs and API
// clients.
func WriteMetrics[M any](w http.ResponseWriter, r *http.Request, metrics func() M, prom func(*obsv.PromWriter)) {
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", obsv.ContentType)
		pw := obsv.NewPromWriter()
		prom(pw)
		_, _ = w.Write(pw.Bytes())
		return
	}
	WriteJSON(w, http.StatusOK, metrics())
}

// sanitizeLink accepts a caller-propagated span link only when it is short
// and plain ([A-Za-z0-9._-], ≤64 bytes); anything else is discarded and the
// server assigns its own ID.
func sanitizeLink(raw string) string {
	if len(raw) == 0 || len(raw) > 64 {
		return ""
	}
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-'
		if !ok {
			return ""
		}
	}
	return raw
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	WriteFlight(w, s.flight, r.URL.Query().Get("format"))
}

// WriteFlight renders a flight-ring dump for a /debug/flight endpoint: the
// Perfetto trace-event JSON of the retained spans by default, the
// attribution text table for format "attrib".  Shared by the single-server
// and router handlers so every tier's dump is the same byte format as a
// full trace.
func WriteFlight(w http.ResponseWriter, f *obsv.Flight, format string) {
	tr := f.Trace()
	switch format {
	case "", "perfetto", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = obsv.WriteTrace(w, tr)
	case "attrib":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = obsv.WriteAttribution(w, obsv.Attribution(tr))
	default:
		WriteError(w, http.StatusBadRequest, "unknown format %q (want perfetto or attrib)", format)
	}
}

func (s *Server) reloadHandler(reload func() (*Index, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reload == nil {
			WriteError(w, http.StatusNotImplemented, "no reload source configured")
			return
		}
		idx, err := reload()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "reload: %v", err)
			return
		}
		gen := s.Publish(idx)
		WriteJSON(w, http.StatusOK, map[string]any{"generation": gen, "num_rules": idx.NumRules()})
	}
}

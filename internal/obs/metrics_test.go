package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseExposition parses a Prometheus text rendering into sample lines,
// failing the test on any structural violation — every sample line must be
// "name[{labels}] value", every family must be preceded by HELP and TYPE.
func parseExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad metric type in %q", line)
			}
			typed[fields[2]] = true
			continue
		}
		key, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(value, " ") {
			t.Fatalf("bad sample line %q", line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("non-numeric sample value in %q: %v", line, err)
		}
		family, _, _ := strings.Cut(key, "{")
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if !typed[family] {
			t.Fatalf("sample %q has no preceding TYPE for %q", line, family)
		}
		samples[key] = value
	}
	return samples
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "A counter.")
	g := r.NewGauge("test_active", "A gauge.")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	g.Inc()
	g.Add(4)
	g.Dec()
	samples := parseExposition(t, r.Render())
	if samples["test_total"] != "42" {
		t.Errorf("counter = %q, want 42", samples["test_total"])
	}
	if samples["test_active"] != "4" {
		t.Errorf("gauge = %q, want 4", samples["test_active"])
	}
	if c.Value() != 42 || g.Value() != 4 {
		t.Errorf("Value() = %d / %d", c.Value(), g.Value())
	}
}

func TestCounterVecRender(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_queries_total", "Queries.", "engine", "outcome")
	v.With("di-msj", "ok").Add(3)
	v.With("di-msj", "error").Inc()
	v.With("di-msj", "ok").Inc() // same child
	samples := parseExposition(t, r.Render())
	if got := samples[`test_queries_total{engine="di-msj",outcome="ok"}`]; got != "4" {
		t.Errorf("ok child = %q, want 4", got)
	}
	if got := samples[`test_queries_total{engine="di-msj",outcome="error"}`]; got != "1" {
		t.Errorf("error child = %q, want 1", got)
	}
}

func TestCounterVecEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_esc_total", "Escapes.", "q")
	v.With("a\"b\\c\nd").Inc()
	out := r.Render()
	want := `test_esc_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("rendering %q does not contain %q", out, want)
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)   // le 0.01
	h.Observe(50 * time.Millisecond)  // le 0.1
	h.Observe(500 * time.Millisecond) // le 1
	h.Observe(2 * time.Second)        // +Inf
	samples := parseExposition(t, r.Render())
	for key, want := range map[string]string{
		`test_seconds_bucket{le="0.01"}`: "1",
		`test_seconds_bucket{le="0.1"}`:  "2",
		`test_seconds_bucket{le="1"}`:    "3",
		`test_seconds_bucket{le="+Inf"}`: "4",
		`test_seconds_count`:             "4",
		`test_seconds_sum`:               "2.555",
	} {
		if samples[key] != want {
			t.Errorf("%s = %q, want %q", key, samples[key], want)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d", h.Count())
	}
}

func TestEnabledGate(t *testing.T) {
	defer SetEnabled(true)
	r := NewRegistry()
	c := r.NewCounter("test_gate_total", "Gated.")
	g := r.NewGauge("test_gate_gauge", "Gated.")
	h := r.NewHistogram("test_gate_seconds", "Gated.", nil)
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() after SetEnabled(false)")
	}
	c.Inc()
	g.Inc()
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("gated-off recording changed values: %d %d %d", c.Value(), g.Value(), h.Count())
	}
	g.Set(7) // Set stays live: configuration gauges must not drift
	if g.Value() != 7 {
		t.Errorf("Set while disabled = %d, want 7", g.Value())
	}
	SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("re-enabled counter = %d, want 1", c.Value())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "Second.")
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_total", "A counter.")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	parseExposition(t, rec.Body.String())
}

// TestDefaultSetParses guards the real metric set: the process-wide
// registry must always render a structurally valid exposition.
func TestDefaultSetParses(t *testing.T) {
	Queries.With("di-msj", "ok").Inc()
	QueryDuration.Observe(3 * time.Millisecond)
	samples := parseExposition(t, Default.Render())
	for _, name := range []string{
		"dixq_query_duration_seconds_count",
		"dixq_plan_cache_hits_total",
		"dixq_sort_bytes_total",
		"dixq_spilled_runs_total",
		"dixq_active_queries",
		"dixq_budget_rejections_total",
		"dixq_traces_sampled_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("default set missing %s", name)
		}
	}
}

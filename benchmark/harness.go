package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dixq"
	"dixq/internal/exec"
	"dixq/internal/server"
)

// queryTimeout is the server's per-query budget; no operation of any
// workload comes near it, so hitting it is a failed operation.
const queryTimeout = 60 * time.Second

// planCacheSize is the server's plan-cache capacity (its default, spelt
// out because settle() turns the cache over once).
const planCacheSize = 128

// traceBuffer holds every server trace of a traced window (the longest,
// mixed-rw, makes a few thousand operations); run() checks none was
// overwritten.
const traceBuffer = 1 << 15

// answer identifies a query result: the FNV-64a hash of the XML and the
// number of top-level trees.
type answer struct {
	hash  uint64
	trees int
}

func hashXML(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	return h.Sum64()
}

func queryBody(query, engine string) []byte {
	b, err := json.Marshal(server.QueryRequest{Query: query, Engine: engine})
	if err != nil {
		panic(err) // a struct of two strings always marshals
	}
	return b
}

// sample is the client's record of one operation.
type sample struct {
	class string
	// start and end are offsets from the window's start.
	start, end time.Duration
	ok         bool
	// why says what went wrong when ok is false.
	why string
	// serverMS is the response's elapsed_ms (reads only).
	serverMS  float64
	respBytes int
	// stats is the response's phase breakdown, kept by traced runs only.
	stats *server.StatsJSON
	trees int
}

func (s sample) latency() time.Duration { return s.end - s.start }

// boundary is the process state at a round boundary of the reader.
type boundary struct {
	t     time.Duration
	cpu   time.Duration
	alloc uint64
	gc    uint32
	// ops is the number of reader operations finished so far.
	ops int
}

// window is everything one measured (or traced) window recorded.
type window struct {
	t0     time.Time
	reads  []sample
	writes []sample
	bounds []boundary
}

func (w *window) rounds() int { return len(w.bounds) - 1 }

// bench is one server instance with its loaded documents and client.
type bench struct {
	w      workload
	seed   int64
	traced bool

	srv      *server.Server
	httpSrv  *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	spillDir string

	classes []class
	// ref is the DI-OPT warm-up answer of each read class; every measured
	// response is checked against it, and verify() checks it against the
	// independent engines.
	ref map[string]answer
	// xml keeps the generated documents of a traced run for the layer
	// probes; nil otherwise, so retained_heap_mb does not count them.
	xml        map[string]string
	scratchXML string
	fragment   string
	baseNodes  int
}

// setup is what setup_s times: generate the documents, start the server
// on a loopback listener, load the documents over PUT, run one warm-up
// round.
func setup(w workload, seed int64, traced bool) (*bench, error) {
	b := &bench{w: w, seed: seed, traced: traced, ref: map[string]answer{}}
	b.classes = w.script()
	b.fragment = benchFragment(seed)
	b.scratchXML = dixq.GenerateXMark(min(scratchSF, w.docs[0].sf), seed+scratchSeedOffset).XML()

	cfg := w.cfg
	cfg.Timeout = queryTimeout
	cfg.PlanCacheSize = planCacheSize
	cfg.TraceSample = -1
	if traced {
		cfg.TraceSample = 1
		cfg.TraceBufferSize = traceBuffer
	}
	if cfg.MemBudget > 0 {
		dir, err := os.MkdirTemp("", "dixq-bench-spill-")
		if err != nil {
			return nil, err
		}
		b.spillDir = dir
		cfg.SpillDir = dir
	}
	b.srv = server.New(map[string]*dixq.Document{}, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		b.removeSpill()
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.httpSrv = &http.Server{Handler: b.srv.Handler()}
	b.serveErr = make(chan error, 1)
	go func() { b.serveErr <- b.httpSrv.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	if err := b.load(); err != nil {
		_ = b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) load() error {
	if b.traced {
		b.xml = map[string]string{}
	}
	for _, d := range b.w.docs {
		xml := dixq.GenerateXMark(d.sf, b.seed+d.seedOffset).XML()
		if b.traced {
			b.xml[d.name] = xml
		}
		dr, s := b.put("load", d.name, xml, time.Now())
		if !s.ok {
			return fmt.Errorf("PUT /docs/%s: %s", d.name, s.why)
		}
		if d.name == mainDoc {
			b.baseNodes = dr.Nodes
		}
	}
	// Warm-up round: a write cycle first where a writer will run, then every
	// read class once, so the plan cache is warm at the version the window
	// starts from.
	if b.w.writer {
		for _, s := range b.writeCycle(putEvery-1, time.Now(), 0) {
			if !s.ok {
				return fmt.Errorf("warm-up %s: %s", s.class, s.why)
			}
		}
	}
	for i := range b.classes {
		c := &b.classes[i]
		resp, s := b.query(c, c.body, time.Now())
		if !s.ok {
			return fmt.Errorf("warm-up %s: %s", c.name, s.why)
		}
		b.ref[c.name] = answer{hash: hashXML(resp.XML), trees: resp.Trees}
	}
	return nil
}

// do sends one request and reads the whole body; the sample's latency is
// request sent → body fully read.
func (b *bench) do(class, method, url string, body []byte, t0 time.Time) ([]byte, sample) {
	s := sample{class: class, start: time.Since(t0)}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		s.end, s.why = time.Since(t0), err.Error()
		return nil, s
	}
	resp, err := b.client.Do(req)
	if err != nil {
		s.end, s.why = time.Since(t0), err.Error()
		return nil, s
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	s.end = time.Since(t0)
	s.respBytes = len(data)
	switch {
	case err != nil:
		s.why = err.Error()
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated:
		s.why = fmt.Sprintf("%s: %.200s", resp.Status, data)
	default:
		s.ok = true
	}
	return data, s
}

// query runs one read; against a known reference answer a differing
// response is a failed operation.
func (b *bench) query(c *class, body []byte, t0 time.Time) (server.QueryResponse, sample) {
	data, s := b.do(c.name, http.MethodPost, b.base+"/query", body, t0)
	var resp server.QueryResponse
	if !s.ok {
		return resp, s
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		s.ok, s.why = false, err.Error()
		return resp, s
	}
	s.serverMS, s.trees = resp.ElapsedMS, resp.Trees
	if b.traced {
		s.stats = resp.Stats
	}
	if want, known := b.ref[c.name]; known && (want.trees != resp.Trees || want.hash != hashXML(resp.XML)) {
		s.ok, s.why = false, "answer differs from the verified one"
	}
	return resp, s
}

func (b *bench) put(class, name, xml string, t0 time.Time) (server.DocResponse, sample) {
	data, s := b.do(class, http.MethodPut, b.base+"/docs/"+name, []byte(xml), t0)
	var dr server.DocResponse
	if s.ok {
		if err := json.Unmarshal(data, &dr); err != nil {
			s.ok, s.why = false, err.Error()
		}
	}
	return dr, s
}

func (b *bench) update(class string, req server.UpdateRequest, t0 time.Time) sample {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	_, s := b.do(class, http.MethodPost, b.base+"/docs/"+mainDoc, body, t0)
	return s
}

// rootChildren is the number of children of XMark's <site> root, so the
// appended <bench> subtree sits at path [0, rootChildren].
const rootChildren = 5

// writeCycle appends the bench fragment under the root, deletes it again,
// and on every putEvery-th cycle replaces the scratch document; think is
// the pause after each operation. The document is back at its base shape
// when the cycle returns.
func (b *bench) writeCycle(i int, t0 time.Time, think time.Duration) []sample {
	out := make([]sample, 0, 3)
	out = append(out, b.update(wAppend, server.UpdateRequest{Op: "append-child", Path: []int{0}, XML: b.fragment}, t0))
	time.Sleep(think)
	out = append(out, b.update(wDelete, server.UpdateRequest{Op: "delete", Path: []int{0, rootChildren}}, t0))
	time.Sleep(think)
	if i%putEvery == putEvery-1 {
		_, s := b.put(wPut, scratchDoc, b.scratchXML, t0)
		out = append(out, s)
		time.Sleep(think)
	}
	return out
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostSteal reads the guest's stolen and total CPU time so far, in clock
// ticks, from /proc/stat (zeros where there is none). The share stolen
// during a window is printed beside the metrics: on a shared host it is
// what most often explains a run that is slower than its neighbours.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func mark(t0 time.Time, ops int) boundary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return boundary{t: time.Since(t0), cpu: processCPU(), alloc: ms.TotalAlloc, gc: ms.NumGC, ops: ops}
}

// minRounds is the fewest rounds a measured window may hold: one per
// segment.
const minRounds = segments

// runWindow drives the closed loop: the reader runs whole rounds of the
// script until `seconds` have passed and at least minRounds are done; with
// a writer workload the second client cycles writes beside it until the
// reader is done.
//
// Every round runs the classes in a fresh order drawn from the run's seed.
// With one order for all rounds a class always ran on its predecessor's
// garbage (the collector's cycles lock onto the round), and which class
// paid for that depended on the seed: Q17 of joins had a median of 60 ms
// under one seed's order and 26-35 ms under five others.
func (b *bench) runWindow(seconds float64) *window {
	win := &window{t0: time.Now()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if b.w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				win.writes = append(win.writes, b.writeCycle(i, win.t0, writerThink)...)
			}
		}()
	}
	order := rand.New(rand.NewSource(b.seed))
	win.bounds = append(win.bounds, mark(win.t0, 0))
	for r := 0; r < minRounds || time.Since(win.t0).Seconds() < seconds; r++ {
		for _, i := range order.Perm(len(b.classes)) {
			c := &b.classes[i]
			_, s := b.query(c, c.body, win.t0)
			win.reads = append(win.reads, s)
		}
		win.bounds = append(win.bounds, mark(win.t0, len(win.reads)))
	}
	close(stop)
	wg.Wait()
	return win
}

// writeTail measures the write classes alone, after the read window, on
// the workloads that have no concurrent writer (a write there would
// invalidate the warm plan cache those workloads are about).
func (b *bench) writeTail() []sample {
	t0 := time.Now()
	var out []sample
	for i := 0; i < b.w.tailCycles; i++ {
		// Every tail cycle ends with a put, so each class has tailCycles
		// samples.
		out = append(out, b.writeCycle(putEvery-1, t0, 0)...)
	}
	return out
}

// settle brings the server to the state retained_heap_mb is defined on:
// no write or reindex under way, and every plan in the cache compiled
// against the current catalog version. A cached plan keeps the version it
// was compiled for reachable, so beside a writer the cache pins whichever
// superseded versions its entries were compiled for when the window ended
// (143-170 MB from one mixed-rw run to the next, for an 11 MB document);
// planCacheSize distinct queries evict them all. Catalog.Reindex is
// idempotent and takes the catalog's write lock, so when it returns the
// last write's background reindex has been done, by the reindexer or here.
func (b *bench) settle() error {
	b.srv.Catalog().Reindex(mainDoc)
	c := class{name: "settle"}
	for i := 1; i <= planCacheSize; i++ {
		// Trailing blanks make planCacheSize different cache keys of one
		// cheap query.
		q := `count(document("` + mainDoc + `")/site/regions)` + strings.Repeat(" ", i)
		if _, s := b.query(&c, queryBody(q, ""), time.Now()); !s.ok {
			return fmt.Errorf("settle: %s", s.why)
		}
	}
	return nil
}

// liveHeap is the heap in bytes that two forced collections leave.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// docNodes reads the main document's node count.
func (b *bench) docNodes() (int, error) {
	data, s := b.do("info", http.MethodGet, b.base+"/docs/"+mainDoc, nil, time.Now())
	if !s.ok {
		return 0, fmt.Errorf("GET /docs/%s: %s", mainDoc, s.why)
	}
	var info server.DocGetResponse
	if err := json.Unmarshal(data, &info); err != nil {
		return 0, err
	}
	return info.Nodes, nil
}

// verify re-runs every read class under the forced merge-join engine and,
// where it is cheap at this scale, the interpreter; both must return the
// bytes the DI-OPT warm-up returned, which every measured response was
// hashed against. Under a memory budget the server's forced merge join
// spills like DI-OPT did, so there the answer is also computed in memory,
// past the server. It also checks that the writers left the document at
// its base node count.
func (b *bench) verify() error {
	var bad []string
	for i := range b.classes {
		c := &b.classes[i]
		engines := []string{"di-msj"}
		if c.interp {
			engines = append(engines, "interp")
		}
		for _, eng := range engines {
			if _, s := b.query(c, queryBody(c.query, eng), time.Now()); !s.ok {
				bad = append(bad, c.name+"/"+eng+": "+s.why)
			}
		}
		if b.w.cfg.MemBudget > 0 {
			res, err := dixq.Run(c.query, b.srv.Catalog(), &dixq.Options{Engine: dixq.MergeJoin, Timeout: queryTimeout})
			if err != nil || hashXML(res.XML()) != b.ref[c.name].hash {
				bad = append(bad, c.name+"/in-memory: answer differs or the run failed")
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("verification against DI-OPT's answers failed: %s", strings.Join(bad, "; "))
	}
	nodes, err := b.docNodes()
	if err != nil {
		return err
	}
	if nodes != b.baseNodes {
		return fmt.Errorf("%s has %d nodes after the run, %d before", mainDoc, nodes, b.baseNodes)
	}
	return nil
}

func (b *bench) removeSpill() {
	if b.spillDir != "" {
		_ = os.RemoveAll(b.spillDir)
	}
}

// close shuts the listener down, stops the server's background reindexer
// and removes the spill directory; it returns once the serve goroutine
// has exited.
func (b *bench) close() error {
	// The client's idle connections go first: one it dialled and never used
	// (the transport dials when both clients want a connection at once) is
	// "new" to the server, and Shutdown waits 5 s for such a connection to
	// send its first request.
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.httpSrv.Shutdown(ctx)
	if serr := <-b.serveErr; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	b.srv.Close()
	if b.spillDir != "" {
		if left, rerr := os.ReadDir(b.spillDir); rerr == nil && len(left) > 0 && err == nil {
			err = fmt.Errorf("%d spill files left in %s", len(left), b.spillDir)
		}
	}
	b.removeSpill()
	return err
}

// assertQuiesced is the end-of-run check that nothing the run started is
// still alive: no borrowed exec worker, and no more goroutines than the
// process began with.
func assertQuiesced(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		inFlight, n := exec.InFlight(), runtime.NumGoroutine()
		if inFlight == 0 && n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("not quiesced: %d exec workers in flight, %d goroutines (started with %d)\n%s",
				inFlight, n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

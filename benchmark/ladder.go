package main

// The traced run's ladder replay. No span lives inside the program yet
// (ROADMAP item 2), so the per-layer times are taken from outside: the
// same op history is replayed on identically-seeded stacks, one per layer
// boundary, and each sampled op is timed once on each rung —
//
//	parser.ParsePremise → cache-less hypo.Engine → Pool (cache off) →
//	Pool (cache as served) → server.Handler into a recorder →
//	a real hdld's handler, timed by its access log →
//	the client's round trip to that hdld
//
// A layer's self time is its rung minus the rung below. Everything up to
// the recorder runs in this process; what a reply costs beyond that — the
// writes to a real connection, the wake-up of another process — is only
// there to be measured on a real daemon. One more in-process rung, the
// handler behind a timing middleware on a loopback httptest server, is the
// yardstick that holds the two halves together (see consistency). Spans
// stay in memory and are written to out/trace_<workload>.json at the end.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/server"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/vfs"
)

// span is one timed call: which rung, for which op, when (ns since the
// ladder started), and the rung that logically encloses it.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// serving is one in-process stack at pool level or above: a pool, the
// live store in front of it on churn_mixed, and what closes them.
type serving struct {
	pool  *hypo.Pool
	live  *hypo.Live
	close func()
}

// newServing builds a stack the way hdld builds its own (-pool 2, the
// workload's cache budget unless cacheOff), on fs — nil for the OS.
func newServing(w *workloadSpec, prog *hypo.Program, dir, name string, cacheOff bool, fs vfs.FS) (*serving, error) {
	opts := hypo.Options{PoolSize: 2, CacheBytes: w.CacheBytes, Metrics: metrics.NewSet("ladder_" + name)}
	if cacheOff {
		opts.CacheBytes = 0
	}
	if !w.Live {
		pl, err := hypo.NewPool(prog, opts)
		if err != nil {
			return nil, err
		}
		return &serving{pool: pl, close: func() { pl.Close() }}, nil
	}
	sub := filepath.Join(dir, "ladder-"+name)
	if fs == nil {
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
	}
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath:      filepath.Join(sub, "wal.log"),
		SnapshotPath: filepath.Join(sub, "data.snap"),
		// The real daemon compacts every 1024 commits; the ladder's few
		// hundred never reach that, so compaction stays out of its timings.
		SnapshotEvery: 1024,
		Logger:        discardLogger(),
		FS:            fs,
	}, opts)
	if err != nil {
		return nil, err
	}
	s := &serving{pool: lv.Pool(), live: lv, close: func() { lv.Close() }}
	for i := range w.Pregen {
		if _, err := s.write(&w.Pregen[i]); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *serving) write(o *op) (time.Duration, error) {
	ms, err := hypo.ParseMutations(o.Assert, o.Retract)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	info, err := s.live.Apply(ms)
	d := time.Since(t)
	if err == nil && info.Changed == 0 {
		err = fmt.Errorf("ladder write %v/%v changed nothing", o.Assert, o.Retract)
	}
	return d, err
}

// read times one pool read and reports how the cache served it.
func (s *serving) read(o *op) (time.Duration, hypo.CacheStatus, error) {
	ctx := context.Background()
	var info hypo.ReadInfo
	var err error
	t := time.Now()
	switch o.Kind {
	case opAsk:
		_, info, err = s.pool.AskInfoCtx(ctx, o.Query)
	case opAskUnder:
		_, info, err = s.pool.AskUnderInfoCtx(ctx, o.Query, o.Add...)
	case opQuery:
		err = s.pool.QueryEachInfoCtx(ctx, o.Query, &info, func(hypo.Binding) error { return nil })
	}
	return time.Since(t), info.Cache, err
}

// engineCall times one op on the cache-less, pool-less evaluator.
func engineCall(e *hypo.Engine, o *op) (time.Duration, error) {
	var err error
	t := time.Now()
	switch o.Kind {
	case opAsk:
		_, err = e.Ask(o.Query)
	case opAskUnder:
		_, err = e.AskUnder(o.Query, o.Add...)
	case opQuery:
		err = e.QueryEach(o.Query, func(hypo.Binding) error { return nil })
	case opWrite:
		err = e.ApplyDelta(o.Assert, o.Retract)
	}
	return time.Since(t), err
}

// handlerSpan is what the timing middleware in front of the loopback
// rung's handler recorded for the latest request. net/http sends the end of
// a response only after the handler has returned, so by the time the client
// has read the whole body, end is this request's.
type handlerSpan struct{ start, end atomic.Int64 }

func (h *handlerSpan) wrap(next http.Handler, origin time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.start.Store(int64(time.Since(origin)))
		next.ServeHTTP(w, r)
		h.end.Store(int64(time.Since(origin)))
	})
}

// sampledOps is the op order the ladder replays: the head of the one
// list, or W's and R's lists merged in their 2 : 3 proportion.
func sampledOps(w *workloadSpec, n int) []*op {
	var out []*op
	if len(w.Lists) == 1 {
		for i := range w.Lists[0] {
			out = append(out, &w.Lists[0][i])
		}
	} else {
		wl, rl := w.Lists[0], w.Lists[1]
		for wi, ri := 0, 0; wi+1 < len(wl) || ri < len(rl); {
			if wi+1 < len(wl) {
				out = append(out, &wl[wi], &wl[wi+1])
				wi += 2
			}
			for k := 0; k < 3 && ri < len(rl); k++ {
				out = append(out, &rl[ri])
				ri++
			}
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// opTimes are the rung timings of one sampled op, in ns. Zero means the
// rung does not apply to the op (a write has no parser or engine rung).
type opTimes struct {
	kind                        opKind
	cache                       hypo.CacheStatus
	parse, engine, poolOff      time.Duration
	pool, admit, handler, inner time.Duration // inner: handler span on the loopback rung
	real, realHandler           time.Duration // round trip to the real hdld; its handler, by its access log
	apply, applyMem             time.Duration
	catchup                     time.Duration // first read after a commit − the same read again
	hasCatchup                  bool
}

// ladderRun is one ladder replay: the history every rung replays, and
// what the rungs record.
type ladderRun struct {
	w      *workloadSpec
	prog   *hypo.Program
	dir    string
	ops    []*op
	origin time.Time
	times  []opTimes
	spans  []span
}

// replay takes one rung through the history — the warm-up list (id −1,
// not recorded), then the sampled ops. afterCommit marks the first read
// behind a write.
func (l *ladderRun) replay(do func(id int, o *op, afterCommit bool) error) error {
	for i := range l.w.Warmup {
		if err := do(-1, &l.w.Warmup[i], false); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	afterCommit := false
	for i, o := range l.ops {
		if err := do(i, o, afterCommit && o.Kind != opWrite); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		afterCommit = o.Kind == opWrite
	}
	return nil
}

// mark records a span that ended just now and lasted d.
func (l *ladderRun) mark(name string, id int, parent string, d time.Duration) {
	if id >= 0 {
		end := int64(time.Since(l.origin))
		l.spans = append(l.spans, span{Name: name, Op: id, Start: end - int64(d), End: end, Parent: parent})
	}
}

// engineRung replays the history on parser.ParsePremise and a cache-less,
// pool-less hypo.Engine, and returns how many memo-table entries the
// sampled ops added.
func (l *ladderRun) engineRung() (tableGrowth int, err error) {
	eng, err := hypo.New(l.prog, hypo.Options{Metrics: metrics.NewSet("ladder_engine")})
	if err != nil {
		return 0, err
	}
	for i := range l.w.Pregen {
		if _, err := engineCall(eng, &l.w.Pregen[i]); err != nil {
			return 0, err
		}
	}
	table0 := -1
	err = l.replay(func(id int, o *op, _ bool) error {
		if id == 0 {
			table0 = eng.Stats().TableSize
		}
		if o.Kind == opWrite { // keeps the history identical; not a rung of the write path
			_, err := engineCall(eng, o)
			return err
		}
		t := time.Now()
		_, err := parser.ParsePremise(o.Query)
		parse := time.Since(t)
		if err != nil {
			return err
		}
		l.mark("parser.premise", id, "engine", parse)
		d, err := engineCall(eng, o)
		if err != nil {
			return err
		}
		l.mark("engine", id, "hypo.pool", d)
		if id >= 0 {
			l.times[id].parse, l.times[id].engine = parse, d
		}
		return nil
	})
	return eng.Stats().TableSize - table0, err
}

// poolRung replays the history on a pool built the way hdld builds its
// own. With cacheOff it is the rung between engine and cache (on
// churn_mixed a Live on vfs.Mem, and the catch-up measurement); without,
// the pool as served (on churn_mixed a Live on the OS filesystem).
func (l *ladderRun) poolRung(cacheOff bool) error {
	name, parent := "hypo.pool", "server.handler"
	var fs vfs.FS
	if cacheOff {
		name, parent = "hypo.pool_nocache", "hypo.pool"
		if l.w.Live {
			fs = vfs.NewMem()
		}
	}
	s, err := newServing(l.w, l.prog, l.dir, name, cacheOff, fs)
	if err != nil {
		return err
	}
	defer s.close()
	return l.replay(func(id int, o *op, afterCommit bool) error {
		if o.Kind == opWrite {
			d, err := s.write(o)
			if err != nil || id < 0 {
				return err
			}
			if cacheOff {
				l.times[id].applyMem = d
				l.mark("live.apply_mem", id, "server.handler", d)
			} else {
				l.times[id].apply = d
				l.mark("live.apply", id, "server.handler", d)
			}
			return nil
		}
		d, cache, err := s.read(o)
		if err != nil || id < 0 {
			return err
		}
		l.mark(name, id, parent, d)
		t := &l.times[id]
		if !cacheOff {
			t.pool, t.cache = d, cache
			return nil
		}
		t.poolOff = d
		if afterCommit { // the same read again, nothing to catch up on
			again, _, err := s.read(o)
			if err != nil {
				return err
			}
			t.catchup, t.hasCatchup = d-again, true
			t.poolOff = again
		}
		return nil
	})
}

// handlerRung replays the history on hdld's handler over a pool as
// served. Without loopback, requests go into a recorder and admission is
// timed on the side; with it, they make a loopback round trip to an
// httptest server whose handler sits behind a timing middleware.
func (l *ladderRun) handlerRung(loopback bool) error {
	name := "handler"
	if loopback {
		name = "loopback"
	}
	s, err := newServing(l.w, l.prog, l.dir, name, false, nil)
	if err != nil {
		return err
	}
	defer s.close()
	logFile, err := os.Create(filepath.Join(l.dir, "ladder-"+name+"-access.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	srv, err := server.New(server.Config{
		Pool: s.pool, Live: s.live,
		Logger:  slog.New(slog.NewJSONHandler(logFile, nil)), // hdld's access log, to a file as in the real run
		Metrics: metrics.NewSet("ladder_srv_" + name),
	})
	if err != nil {
		return err
	}
	if loopback {
		var inner handlerSpan
		ts := httptest.NewServer(inner.wrap(srv.Handler(), l.origin))
		defer ts.Close()
		c := newClient(strings.TrimPrefix(ts.URL, "http://"))
		defer c.close()
		memo := map[[2]uint64]answer{}
		return l.replay(func(id int, o *op, _ bool) error {
			r := c.do(o, requestBody(o))
			if jerr := judge(l.w, &r, memo); jerr != nil {
				return fmt.Errorf("loopback rung: %w", jerr)
			}
			if id >= 0 {
				l.mark("loopback.rtt", id, "", r.rtt)
				l.spans = append(l.spans, span{Name: "loopback.handler", Op: id, Start: inner.start.Load(), End: inner.end.Load(), Parent: "loopback.rtt"})
				l.times[id].inner = time.Duration(inner.end.Load() - inner.start.Load())
			}
			return nil
		})
	}
	tenant := srv.Registry().Default()
	return l.replay(func(id int, o *op, _ bool) error {
		if o.Kind != opWrite {
			t := time.Now()
			release, err := tenant.Admit(context.Background())
			if err != nil {
				return err
			}
			release()
			d := time.Since(t)
			l.mark("tenant.admit", id, "server.handler", d)
			if id >= 0 {
				l.times[id].admit = d
			}
		}
		req := httptest.NewRequest(http.MethodPost, opPath[o.Kind], bytes.NewReader(requestBody(o)))
		rec := httptest.NewRecorder()
		t := time.Now()
		srv.Handler().ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler rung: status %d: %s", rec.Code, rec.Body.String())
		}
		l.mark("server.handler", id, "hdld.handler", d)
		if id >= 0 {
			l.times[id].handler = d
		}
		return nil
	})
}

// daemonRung replays the history from one client against a real hdld of
// its own, booted the way the window's is. The client times the round
// trip; the daemon's access log says how long its handler took. In
// process, the client and the server are goroutines of one scheduler; here
// each reply wakes another process, and that is most of what net costs.
func (l *ladderRun) daemonRung(cfg runConfig, memo map[[2]uint64]answer) error {
	d, _, _, err := boot(cfg, l.w, l.dir, "ladder-hdld", memo)
	if err != nil {
		return err
	}
	c := newClient(d.addr)
	var ends []int64
	for i, o := range l.ops {
		r := c.do(o, requestBody(o))
		if jerr := judge(l.w, &r, memo); jerr != nil {
			c.close()
			_ = d.stop()
			return fmt.Errorf("hdld rung, op %d: %v; daemon log: %s", i, jerr, d.logPath)
		}
		l.times[i].real = r.rtt
		ends = append(ends, int64(time.Since(l.origin)))
	}
	c.close()
	if err := d.stop(); err != nil { // the log is complete once the daemon is gone
		return err
	}
	logged, err := accessLog(d.logPath)
	if err != nil {
		return err
	}
	if len(logged) != len(l.w.Warmup)+len(l.ops) {
		return fmt.Errorf("hdld rung: %d request lines in %s for %d requests", len(logged), d.logPath, len(l.w.Warmup)+len(l.ops))
	}
	for i, o := range l.ops {
		ln := logged[len(l.w.Warmup)+i]
		if want := opPath[o.Kind][len("/v1/"):]; ln.Endpoint != want {
			return fmt.Errorf("hdld rung: request line %d is a %s, op %d a %s", len(l.w.Warmup)+i, ln.Endpoint, i, want)
		}
		t := &l.times[i]
		t.realHandler = time.Duration(ln.ElapsedMS * float64(time.Millisecond))
		// The log times the handler but not when it ran: the span is
		// centred in the round trip.
		mid := ends[i] - int64(t.real)/2
		l.spans = append(l.spans,
			span{Name: "net.rtt", Op: i, Start: ends[i] - int64(t.real), End: ends[i]},
			span{Name: "hdld.handler", Op: i, Start: mid - int64(t.realHandler)/2, End: mid + int64(t.realHandler)/2, Parent: "net.rtt"})
	}
	return nil
}

// requestLine is what the ladder reads of one line of hdld's access log.
type requestLine struct {
	Msg       string  `json:"msg"`
	Endpoint  string  `json:"endpoint"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// accessLog returns the "request" lines of a daemon log, in order.
func accessLog(path string) ([]requestLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []requestLine
	for _, ln := range bytes.Split(data, []byte("\n")) {
		var r requestLine
		if json.Unmarshal(ln, &r) == nil && r.Msg == "request" {
			out = append(out, r)
		}
	}
	return out, nil
}

// ladder replays the sampled ops rung by rung and fills m with the
// per-layer times. Each rung gets a stack of its own and the whole history
// to itself, then is torn down before the next: six stacks taking turns at
// each op would each find the processor's caches cold, which the one stack
// of the real daemon never does. For the same reason the garbage collector
// runs as it does in a daemon, not as the load generator sets it.
func ladder(cfg runConfig, w *workloadSpec, dir string, m map[string]metric, memo map[[2]uint64]answer) (*ladderRun, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	prog, err := hypo.Parse(w.Program)
	if err != nil {
		return nil, err
	}
	ops := sampledOps(w, cfg.ladderOps)
	l := &ladderRun{w: w, prog: prog, dir: dir, ops: ops, origin: time.Now(), times: make([]opTimes, len(ops))}
	reads := 0
	for i, o := range ops {
		l.times[i].kind = o.Kind
		if o.Kind != opWrite {
			reads++
		}
	}
	var tableGrowth int
	for _, rung := range []func() error{
		func() (err error) { tableGrowth, err = l.engineRung(); return },
		func() error { return l.poolRung(true) },
		func() error {
			if w.CacheBytes > 0 {
				return l.poolRung(false)
			}
			for i := range l.times { // served without a cache: one rung is both
				l.times[i].pool, l.times[i].cache = l.times[i].poolOff, hypo.CacheBypass
			}
			return nil
		},
		func() error { return l.handlerRung(false) },
		func() error { return l.handlerRung(true) },
		func() error { return l.daemonRung(cfg, memo) },
	} {
		runtime.GC() // the last rung's garbage is not this rung's to collect
		if err := rung(); err != nil {
			return nil, err
		}
	}
	layerTable(m, l.times)
	m["topdown.table_growth_per_op"] = metric{Value: ratio(float64(tableGrowth), float64(reads)), Unit: "count", N: reads}
	return l, staticLayer(m, w)
}

// layerTable turns rung timings into per-layer self times. On a cache
// hit the engine and the pool's lease are not on the path: the time above
// the parser belongs to the cache.
func layerTable(m map[string]metric, times []opTimes) {
	var parse, engine, poolSelf, hit, missOver, admit, srv, wire, netSelf, apply, applyMem, catchup []float64
	var engineSum, handlerSum float64
	for _, t := range times {
		netSelf = append(netSelf, us(t.real-t.realHandler))
		wire = append(wire, us(t.realHandler-t.handler))
		handlerSum += us(t.realHandler)
		if t.kind == opWrite {
			apply = append(apply, us(t.apply))
			applyMem = append(applyMem, us(t.applyMem))
			srv = append(srv, us(t.handler-t.apply))
			continue
		}
		parse = append(parse, us(t.parse))
		engine = append(engine, us(t.engine-t.parse))
		admit = append(admit, us(t.admit))
		srv = append(srv, us(t.handler-t.pool-t.admit))
		if t.hasCatchup {
			catchup = append(catchup, us(t.catchup))
		}
		if t.cache == hypo.CacheHit {
			hit = append(hit, us(t.pool-t.parse))
			continue
		}
		engineSum += us(t.engine - t.parse)
		poolSelf = append(poolSelf, us(t.poolOff-t.engine))
		if t.cache == hypo.CacheMiss {
			missOver = append(missOver, us(t.pool-t.poolOff))
		}
	}
	m["net.self_us_p50"] = p50(netSelf, "us")
	m["server.self_us_p50"] = p50(srv, "us")
	m["server.wire_us_p50"] = p50(wire, "us")
	m["tenant.admit_us_p50"] = p50(admit, "us")
	m["hypo.pool_self_us_p50"] = p50(poolSelf, "us")
	m["hypo.catchup_us_p50"] = p50(catchup, "us")
	m["cache.hit_us_p50"] = p50(hit, "us")
	m["cache.miss_overhead_us_p50"] = p50(missOver, "us")
	m["parser.premise_us_p50"] = p50(parse, "us")
	m["engine.eval_us_p50"] = p50(engine, "us")
	m["engine.eval_us_p99"] = p99(engine, "us")
	m["engine.share_of_handler"] = metric{Value: ratio(engineSum, handlerSum), Unit: "ratio", N: len(times)}
	m["live.apply_us_p50"] = p50(apply, "us")
	m["live.apply_mem_us_p50"] = p50(applyMem, "us")
}

// sink keeps the micro-measured calls from being optimised away.
var sink any

// staticLayer measures what a layer costs once per boot (parse,
// stratify, snapshot load; each the median of five calls) and the
// hypothetical-state primitive facts.Delta.Add at three sizes.
func staticLayer(m map[string]metric, w *workloadSpec) error {
	tree, err := parser.Parse(w.Program)
	if err != nil {
		return err
	}
	prog, err := hypo.Parse(w.Program)
	if err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := prog.WriteSnapshot(&snap); err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		call func() (any, error)
	}{
		{"hypo.parse_program_ms", func() (any, error) { return hypo.Parse(w.Program) }},
		{"parser.program_ms", func() (any, error) { return parser.Parse(w.Program) }},
		{"strat.stratify_ms", func() (any, error) { return strat.Stratify(tree) }},
		{"storage.snapshot_load_ms", func() (any, error) { return hypo.ReadSnapshot(bytes.NewReader(snap.Bytes())) }},
	} {
		var xs []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			v, err := c.call()
			xs = append(xs, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			sink = v
		}
		m[c.name] = p50(xs, "ms")
	}
	for _, k := range []int{8, 64, 512} {
		ids := make([]facts.AtomID, k)
		for i := range ids {
			ids[i] = facts.AtomID(2 * i)
		}
		d := facts.NewDelta(ids)
		mid := facts.AtomID(k + 1) // odd: absent, lands mid-slice
		const iters = 20000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		for i := 0; i < iters; i++ {
			sink = d.Add(mid)
		}
		el := time.Since(t)
		runtime.ReadMemStats(&after)
		m[fmt.Sprintf("facts.delta_add_ns_k%d", k)] = metric{Value: float64(el.Nanoseconds()) / iters, Unit: "ns", N: iters}
		if k == 512 {
			m["facts.delta_add_bytes_k512"] = metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / iters, Unit: "B", N: iters}
		}
	}
	return nil
}

// consistency is the traced run's self-check. An op's layer self times
// sum to its round trip to the real hdld by construction: the rungs above
// the handler are that hdld. What can be off is the part below, measured
// in this process. So the first check asks whether the ladder's stacks
// cost what the real daemon costs, where the two can be held side by side:
// the median handler span of an ask on the loopback rung against the
// median time the daemon's own handler logged for the same asks. They may
// differ by 15 % of the asks' round trip; fewer than minJudged asks are
// too few to say. Enumerations and writes are printed but not judged. Each streamed binding is one more write that
// wakes the client, and waking another process costs a handler more than
// waking a goroutine of its own; and a commit is mostly one fsync, whose
// time differs more between two replays on this disk than the tolerance.
// The second check holds the daemon's cache counters against what the
// client saw in X-Hdl-Cache. A violation means the benchmark, not the
// program, is off.
const minJudged = 50

func consistency(w *workloadSpec, res *runResult, times []opTimes, results []result) []string {
	typeOf := func(k opKind) string {
		switch k {
		case opQuery:
			return "query"
		case opWrite:
			return "write"
		}
		return "ask"
	}
	window := map[string][]float64{}
	hit, lookups := 0, 0
	for i := range results {
		r := &results[i]
		if r.err != nil {
			continue
		}
		window[typeOf(r.op.Kind)] = append(window[typeOf(r.op.Kind)], ms(r.rtt))
		if r.cache != "" {
			lookups++
			if r.cache == "hit" {
				hit++
			}
		}
	}
	inProc, logged, rtt := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, t := range times {
		k := typeOf(t.kind)
		inProc[k] = append(inProc[k], ms(t.inner))
		logged[k] = append(logged[k], ms(t.realHandler))
		rtt[k] = append(rtt[k], ms(t.real))
	}
	var out []string
	for _, k := range []string{"ask", "query", "write"} {
		if len(rtt[k]) == 0 {
			continue
		}
		in, lg, rt := median(inProc[k]), median(logged[k]), median(rtt[k])
		verdict := "ok"
		switch {
		case k == "query":
			verdict = "not judged (a streamed reply costs a real handler one wake-up of the client per binding)"
		case k == "write":
			verdict = "not judged (one fsync is most of a commit)"
		case len(rtt[k]) < minJudged:
			verdict = "not judged (too few)"
		case math.Abs(in-lg) > 0.15*rt:
			verdict = "VIOLATED (benchmark bug: the ladder's stacks do not cost what the daemon costs)"
		}
		out = append(out, fmt.Sprintf("%s, median of %d ops: handler %.4f ms on the loopback rung, %.4f ms in the real hdld, of a %.4f ms round trip from one client: %s (window median, %d clients: %.4f ms)",
			k, len(rtt[k]), in, lg, rt, verdict, w.Clients, median(window[k])))
	}
	tally := ratio(float64(hit), float64(lookups))
	vars := res.Layer["cache.hit_ratio"]
	verdict := "ok"
	if vars.N != lookups || vars.Value != tally {
		verdict = "VIOLATED (benchmark bug: /debug/vars and X-Hdl-Cache disagree)"
	}
	out = append(out, fmt.Sprintf("cache.hit_ratio %.6f over %d lookups in /debug/vars, %.6f over %d X-Hdl-Cache headers: %s",
		vars.Value, vars.N, tally, lookups, verdict))
	return out
}

// writeTrace overwrites out/trace_<workload>.json with the spans and the
// per-layer table of this run.
func writeTrace(outDir string, res *runResult, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	type row struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n,omitempty"`
	}
	var layers []row
	for k, m := range res.Layer {
		layers = append(layers, row{k, m.Value, m.Unit, m.N})
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	f, err := os.Create(filepath.Join(outDir, "trace_"+res.Workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(map[string]any{
		"workload": res.Workload,
		"input":    res.Hash,
		"layers":   layers,
		"checks":   res.Checks,
		"spans":    spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

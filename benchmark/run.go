package main

// One real run of one workload: set up a daemon (several times over, for
// a steady setup_s), replay the timed op list against the last one, judge
// every reply, and turn the observations into metrics. Rates, CPU per op
// and the ask median are medians over equal slices of the window, so a
// few seconds of a neighbour's load on this shared host do not move them.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	hypo "hypodatalog"
)

type runConfig struct {
	hdld      string // built daemon binary
	scratch   string // where run directories are made (and removed)
	outDir    string // where trace_<workload>.json goes
	seed      int64
	seconds   float64 // sizes the op lists; see opsPerSecond
	trace     bool
	setupReps int // fewest daemons set up per run; setup_s is the median
	ladderOps int // timed ops the traced run's ladder samples
}

type runResult struct {
	Workload  string
	Hash      string // of the generated input
	Attempted int
	Failed    int
	Failures  []string // the first few, for the log
	WindowS   float64
	E2E       map[string]metric
	Layer     map[string]metric // traced runs only
	Checks    []string          // traced runs: consistency-check verdicts
	KeptDir   string            // run directory left behind after a failure
}

const (
	// maxWindow aborts a run whose op list takes absurdly long (a hung
	// daemon, a host ten times slower than the calibration host) before
	// the contract's 180 s cap does it for us.
	maxWindow = 150 * time.Second
	// Set-ups repeat until they have taken setupBudget seconds together
	// (but at least runConfig.setupReps times and at most five times
	// that): the shorter a set-up, the more of it is process-spawn jitter
	// and the more of them the median needs.
	setupBudget = 2.0
	// windowSlices is how many equal-count slices of the window the
	// sliced metrics are medians over.
	windowSlices = 9
	cpuSampleGap = 50 * time.Millisecond
)

func runWorkload(cfg runConfig, name string) (res *runResult, err error) {
	w, err := buildWorkload(name, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	w.Clients = min(w.Clients, runtime.NumCPU())
	if len(w.Lists) > w.Clients { // one core: no concurrent reader, W alone
		w.Lists = w.Lists[:1]
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	activeDir.Store(&dir)
	res = &runResult{Workload: name, Hash: w.hash(), E2E: map[string]metric{}}
	defer func() {
		activeDir.Store(nil)
		if err != nil || res.Failed > 0 {
			res.KeptDir = dir // the daemon log is the evidence
			return
		}
		_ = os.RemoveAll(dir)
	}()

	if err := os.WriteFile(filepath.Join(dir, "program.hdl"), []byte(w.Program), 0o644); err != nil {
		return res, err
	}
	if w.Live {
		if err := pregenerate(w, filepath.Join(dir, "pregen")); err != nil {
			return res, fmt.Errorf("pre-generate snapshot + WAL: %w", err)
		}
	}
	memo := map[[2]uint64]answer{}

	// A traced run climbs its ladder first, while this process's heap is
	// as small as a freshly booted daemon's.
	var lad *ladderRun
	if cfg.trace {
		res.Layer = map[string]metric{}
		if lad, err = ladder(cfg, w, dir, res.Layer, memo); err != nil {
			return res, fmt.Errorf("ladder replay: %w", err)
		}
	}

	// Set-up, several times over; the last daemon serves the window.
	var d *daemon
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	var setups []float64
	var walPath string
	for rep, total := 0, 0.0; rep < cfg.setupReps || (rep < 5*cfg.setupReps && total < setupBudget); rep++ {
		if err := d.stop(); err != nil {
			return res, err
		}
		var took float64
		if d, walPath, took, err = boot(cfg, w, dir, fmt.Sprintf("d%d", rep), memo); err != nil {
			return res, err
		}
		setups = append(setups, took)
		total += took
	}
	res.E2E["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}

	// The timed window.
	var before, after varsSnapshot
	if cfg.trace {
		if before, err = d.vars(); err != nil {
			return res, err
		}
	}
	// WAL growth is measured over the window's first commits, before the
	// daemon's first compaction (every 1024) rotates the file.
	var walStart, walMid int64
	walSample := 0
	if w.Live {
		walStart = fileSize(walPath)
		walSample = min(256, len(w.Lists[0])/2)
	}
	first, err := d.cpuSample()
	if err != nil {
		return res, err
	}
	sampler := startCPUSampler(d)
	abort := time.AfterFunc(maxWindow, func() { _ = d.cmd.Process.Kill() })
	results, wall := replay(d.addr, w, func(n int) {
		if n == walSample {
			walMid = fileSize(walPath)
		}
	})
	abort.Stop()
	cpu := append([]cpuSample{first}, sampler.stop()...)
	last, err := d.cpuSample()
	if err != nil {
		return res, fmt.Errorf("daemon gone after the window (%v); log: %s", err, d.logPath)
	}
	cpu = append(cpu, last)
	if cfg.trace {
		if after, err = d.vars(); err != nil {
			return res, err
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return res, err
	}

	// Judge.
	res.Attempted = len(results)
	res.WindowS = wall.Seconds()
	for i := range results {
		if jerr := judge(w, &results[i], memo); jerr != nil {
			res.Failed++
			if len(res.Failures) < 5 {
				res.Failures = append(res.Failures, jerr.Error())
			}
		}
	}
	if res.Failed > 0 {
		res.Failures = append(res.Failures, "daemon log: "+d.logPath)
	}

	obs := observe(results)
	n := float64(len(results))
	rate, cpuPerOp, askP50 := slicedMedians(results, cpu)
	res.E2E["ops_per_s"] = metric{Value: rate, Unit: "1/s", N: len(results)}
	res.E2E["ask_p50_ms"] = metric{Value: askP50, Unit: "ms", N: len(obs.ask)}
	res.E2E["server_cpu_ms_per_op"] = metric{Value: 1000 * cpuPerOp, Unit: "ms", N: len(results)}
	res.E2E["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}

	if cfg.trace {
		clientLayer(res.Layer, obs, res)
		procLayer(res.Layer, last.user-first.user, last.sys-first.sys)
		varsLayer(res.Layer, before, after, n)
		res.Layer["live.wal_bytes_per_commit"] = metric{Value: ratio(float64(walMid-walStart), float64(walSample)), Unit: "B", N: walSample}
		res.Checks = consistency(w, res, lad.times, results)
		if err := writeTrace(cfg.outDir, res, lad.spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// boot starts a daemon for w in a new subdirectory tag of dir the way a
// user would — shipped defaults, -pool 2, the workload's cache budget, on
// churn_mixed a copy of the pre-generated snapshot and WAL tail to recover
// from — waits until it is ready and replays the warm-up list. It returns
// the running daemon, its WAL path, and how long all of that took.
func boot(cfg runConfig, w *workloadSpec, dir, tag string, memo map[[2]uint64]answer) (d *daemon, walPath string, took float64, err error) {
	sub := filepath.Join(dir, tag)
	if err := os.Mkdir(sub, 0o755); err != nil {
		return nil, "", 0, err
	}
	args := []string{"-pool", "2"}
	if w.CacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(w.CacheBytes, 10))
	}
	if w.Live {
		walPath = filepath.Join(sub, "wal.log")
		snap := filepath.Join(sub, "data.snap")
		for _, f := range []string{walPath, snap} {
			if err := copyFile(filepath.Join(dir, "pregen", filepath.Base(f)), f); err != nil {
				return nil, "", 0, err
			}
		}
		args = append(args, "-wal", walPath, "-snapshot", snap)
	}
	args = append(args, filepath.Join(dir, "program.hdl"))
	t0 := time.Now()
	if d, err = startDaemon(cfg.hdld, sub, args...); err != nil {
		return nil, "", 0, err
	}
	defer func() {
		if err != nil {
			_ = d.stop()
			d = nil
		}
	}()
	if err := d.waitReady(); err != nil {
		return d, "", 0, err
	}
	c := newClient(d.addr)
	warm := make([]result, len(w.Warmup))
	for i := range w.Warmup {
		warm[i] = c.do(&w.Warmup[i], requestBody(&w.Warmup[i]))
	}
	c.close()
	took = time.Since(t0).Seconds()
	for i := range warm {
		if jerr := judge(w, &warm[i], memo); jerr != nil {
			return d, "", 0, fmt.Errorf("warm-up op %d failed: %v; daemon log: %s", i, jerr, d.logPath)
		}
	}
	return d, walPath, took, nil
}

// cpuSampler reads the daemon's CPU clock every cpuSampleGap during the
// window, so CPU per op can be taken slice by slice.
type cpuSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []cpuSample
}

func startCPUSampler(d *daemon) *cpuSampler {
	s := &cpuSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(cpuSampleGap)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if c, err := d.cpuSample(); err == nil { // a dead daemon shows after the window
					s.samples = append(s.samples, c)
				}
			}
		}
	}()
	return s
}

func (s *cpuSampler) stop() []cpuSample {
	close(s.quit)
	<-s.done
	return s.samples
}

// slicedMedians cuts the window's ops, in completion order, into
// windowSlices runs of equal count and returns the median over the slices
// of: ops completed per second, daemon CPU seconds per op, and the median
// ask round trip in ms. A slice's CPU is read off cpu, the samples of the
// daemon's CPU clock, by linear interpolation.
func slicedMedians(results []result, cpu []cpuSample) (rate, cpuPerOp, askP50 float64) {
	done := make([]*result, 0, len(results))
	for i := range results {
		if results[i].err == nil {
			done = append(done, &results[i])
		}
	}
	if len(done) == 0 {
		return 0, 0, 0
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end().Before(done[j].end()) })
	cpuAt := func(t time.Time) float64 {
		i := sort.Search(len(cpu), func(i int) bool { return cpu[i].at.After(t) })
		switch {
		case i == 0:
			return cpu[0].user + cpu[0].sys
		case i == len(cpu):
			return cpu[i-1].user + cpu[i-1].sys
		}
		a, b := cpu[i-1], cpu[i]
		f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
		return (a.user + a.sys) + f*((b.user+b.sys)-(a.user+a.sys))
	}
	var rates, cpus, asks []float64
	from := done[0].sent // the clients start together
	for k := 0; k < windowSlices; k++ {
		slice := done[k*len(done)/windowSlices : (k+1)*len(done)/windowSlices]
		if len(slice) == 0 {
			continue
		}
		to := slice[len(slice)-1].end()
		rates = append(rates, float64(len(slice))/to.Sub(from).Seconds())
		cpus = append(cpus, (cpuAt(to)-cpuAt(from))/float64(len(slice)))
		var rtts []float64
		for _, r := range slice {
			if r.op.Kind == opAsk || r.op.Kind == opAskUnder {
				rtts = append(rtts, ms(r.rtt))
			}
		}
		if len(rtts) > 0 {
			asks = append(asks, median(rtts))
		}
		from = to
	}
	return median(rates), median(cpus), median(asks)
}

// observations are the client-side samples of one window, by op type.
type observations struct {
	ask, query, first, write, raw []float64 // ms
	respBytes                     int64
}

func observe(results []result) *observations {
	o := &observations{}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			continue
		}
		o.respBytes += int64(len(r.body))
		switch r.op.Kind {
		case opAsk, opAskUnder:
			o.ask = append(o.ask, ms(r.rtt))
		case opQuery:
			o.query = append(o.query, ms(r.rtt))
			o.first = append(o.first, ms(r.first))
		case opWrite:
			o.write = append(o.write, ms(r.rtt))
			continue
		}
		if r.op.AfterWrite {
			o.raw = append(o.raw, ms(r.rtt))
		}
	}
	return o
}

// pregenerate applies the workload's pre-boot commits to a live store
// in-process and copies out its files while they hold a snapshot (the
// first churnPregenSnap commits) plus a WAL tail (the rest) — closing the
// store would compact the tail away.
func pregenerate(w *workloadSpec, outDir string) error {
	work := outDir + "-live"
	for _, d := range []string{outDir, work} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	prog, err := hypo.Parse(w.Program)
	if err != nil {
		return err
	}
	wal, snap := filepath.Join(work, "wal.log"), filepath.Join(work, "data.snap")
	lv, err := hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath: wal, SnapshotPath: snap, SnapshotEvery: churnPregenSnap,
		Logger: discardLogger(),
	}, hypo.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	defer lv.Close()
	for i := range w.Pregen {
		ms, err := hypo.ParseMutations(w.Pregen[i].Assert, w.Pregen[i].Retract)
		if err != nil {
			return err
		}
		info, err := lv.Apply(ms)
		if err != nil {
			return err
		}
		if info.Version != uint64(i+1) || info.Changed != 1 {
			return fmt.Errorf("pre-generated commit %d: version %d, changed %d", i+1, info.Version, info.Changed)
		}
	}
	if err := copyFile(wal, filepath.Join(outDir, "wal.log")); err != nil {
		return err
	}
	return copyFile(snap, filepath.Join(outDir, "data.snap"))
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bandjoin"
)

// Shape of one run. A run is: generate inputs, pass the correctness gate at
// reduced scale, cold-start the plane several times (set-up time is their
// median), discard a few warm-up ops, then run timed ops back to back — one
// client goroutine, closed loop — until the measuring window is used up.
const (
	coldStarts = 5
	warmUps    = 2
	// ratioOps is how many of the first timed ops load_ratio and dup_ratio
	// are taken over: a fixed count, so the ratios do not depend on how many
	// ops the machine fits into the window.
	ratioOps = 8
	// Op medians outside this range (seconds) draw a warning: shorter ops are
	// noisy on a small machine, longer ones leave too few samples per window.
	opFloorS, opCeilS = 0.25, 1.5
)

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	smoke   bool   // reduced scale for tests: tiny inputs, one cold start
	outDir  string // where the traced run writes its spans
}

func (cfg runConfig) n() int {
	if cfg.smoke {
		return smokeN
	}
	return cfg.w.n
}

// checker counts what was attempted and what failed; a failure is an
// operation that returned an error or a wrong answer.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(what string, err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		c.failures = append(c.failures, what+": "+err.Error())
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// detail is the record of one run beyond the contract's result line: the
// machine, the sizes, the sample counts and the spread of the op times.
type detail struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Tuples     int       `json:"tuples_per_side"`
	Ops        int       `json:"ops"`
	OpMedianS  float64   `json:"op_median_s"`
	OpIQRS     float64   `json:"op_iqr_s"`
	OpS        []float64 `json:"op_s"`
	ColdStarts []float64 `json:"cold_starts_s,omitempty"`
	Warnings   []string  `json:"warnings,omitempty"`
	Failures   []string  `json:"failures,omitempty"`
}

func newDetail(cfg runConfig) *detail {
	return &detail{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Tuples: cfg.n(),
	}
}

func (d *detail) noteOps(cfg runConfig, opS []float64) {
	d.Ops = len(opS)
	d.OpS = opS
	d.OpMedianS = median(opS)
	d.OpIQRS = iqr(opS)
	if !cfg.smoke && (d.OpMedianS < opFloorS || d.OpMedianS > opCeilS) {
		d.warn("op median %.3fs is outside %.2f–%.1fs: retune the workload's size", d.OpMedianS, opFloorS, opCeilS)
	}
}

func (d *detail) warn(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	d.Warnings = append(d.Warnings, msg)
	fmt.Fprintf(os.Stderr, "WARNING %s: %s\n", d.Workload, msg)
}

// gate runs the workload at reduced scale with pair collection on and
// compares every answer, pair for pair, with the nested loop.
func gate(cfg runConfig, c *checker) {
	w := cfg.w
	in := w.generate(min(gateN, cfg.n()), cfg.seed)
	sess, res, err := w.start(in, cfg.seed, true)
	if !c.check("gate: cold start", err) {
		return
	}
	defer sess.close()
	var want []bandjoin.Pair
	var wantRows int
	var wantEps float64
	for i := 0; ; i++ {
		s, t, band := sess.state()
		// The two cold workloads answer the same question twice: one nested
		// loop serves both. (Every workload's band is uniform, and only S
		// grows.)
		if want == nil || s.Len() != wantRows || band.Low[0] != wantEps {
			want, wantRows, wantEps = nestedLoop(s, t, band), s.Len(), band.Low[0]
		}
		c.check(fmt.Sprintf("gate: answer %d", i), samePairs(res.Pairs, want))
		if i == 1 {
			return
		}
		if res, err = sess.op(); !c.check("gate: op", err) {
			return
		}
	}
}

// verifier applies the full-scale output rules to successive answers.
type verifier struct {
	w     *workload
	first *bandjoin.Result
	last  int64
}

func (v *verifier) verify(res *bandjoin.Result) error {
	if v.first == nil {
		v.first = res
		v.last = res.Output
	}
	defer func() { v.last = res.Output }()
	switch {
	case v.w.sameOutput && res.Output != v.first.Output:
		return fmt.Errorf("output %d differs from the first answer's %d", res.Output, v.first.Output)
	case v.w.growing && res.Output < v.last:
		return fmt.Errorf("output %d shrank from %d after an append", res.Output, v.last)
	case res.Output <= 0:
		return fmt.Errorf("output %d is not positive", res.Output)
	case math.IsNaN(res.LoadOverhead) || res.LoadOverhead < 0 || res.DupOverhead < 0:
		return fmt.Errorf("overheads load=%v dup=%v are not valid", res.LoadOverhead, res.DupOverhead)
	}
	return nil
}

// finish checks an appended-to session against a from-scratch count of the
// data as the benchmark itself appended it.
func (v *verifier) finish(sess session, c *checker) {
	if !v.w.growing {
		return
	}
	s, t, band := sess.state()
	n, err := bandjoin.Count(s, t, band, bandjoin.Options{Seed: benchSeed})
	if err == nil && n != v.last {
		err = fmt.Errorf("last answer %d, a from-scratch count of the final data gives %d", v.last, n)
	}
	c.check("final count", err)
}

// timedOp runs one op with a collection before it, outside the timed region.
func timedOp(sess session) (*bandjoin.Result, float64, error) {
	runtime.GC()
	start := time.Now()
	res, err := sess.op()
	return res, time.Since(start).Seconds(), err
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(cfg runConfig) (map[string]float64, *checker, *detail) {
	w, c, d := cfg.w, &checker{}, newDetail(cfg)
	in := w.generate(cfg.n(), cfg.seed)
	gate(cfg, c)

	starts := coldStarts
	if cfg.smoke {
		starts = 1
	}
	var sess session
	v := &verifier{w: w}
	var firstOutput int64
	for i := 0; i < starts; i++ {
		if sess != nil {
			sess.close()
		}
		runtime.GC()
		start := time.Now()
		se, res, err := w.start(in, cfg.seed, false)
		took := time.Since(start).Seconds()
		if !c.check("cold start", err) {
			return nil, c, d
		}
		sess = se
		d.ColdStarts = append(d.ColdStarts, took)
		if i == 0 {
			firstOutput = res.Output
		} else if res.Output != firstOutput {
			c.check("cold start", fmt.Errorf("output %d differs from the first cold start's %d", res.Output, firstOutput))
		}
		if i == starts-1 {
			c.check("cold start answer", v.verify(res))
		}
	}
	defer sess.close()

	for i := 0; i < warmUps; i++ {
		res, _, err := timedOp(sess)
		if c.check("warm-up op", err) {
			c.check("warm-up answer", v.verify(res))
		}
	}

	var opS, loadRatio, dupRatio []float64
	for begin := time.Now(); len(opS) == 0 || time.Since(begin).Seconds() < cfg.seconds; {
		res, took, err := timedOp(sess)
		if !c.check("op", err) {
			break
		}
		c.check("answer", v.verify(res))
		opS = append(opS, took)
		if len(loadRatio) < ratioOps {
			loadRatio = append(loadRatio, 1+res.LoadOverhead)
			dupRatio = append(dupRatio, 1+res.DupOverhead)
		}
	}
	v.finish(sess, c)
	if len(opS) == 0 {
		return nil, c, d
	}
	d.noteOps(cfg, opS)

	return map[string]float64{
		"setup_s":      median(d.ColdStarts),
		"query_s.p50":  median(opS),
		"query_s.p75":  quantile(opS, 0.75),
		"tuples_per_s": float64(len(opS)) * float64(2*cfg.n()) / sum(opS),
		"load_ratio":   median(loadRatio),
		"dup_ratio":    median(dupRatio),
		"peak_rss_mb":  peakRSSMiB(),
	}, c, d
}

// runTraced is the separate traced run that yields the per-layer metrics.
// Untraced ops, ops under a span, and stage-by-stage replays alternate in one
// process, so their medians compare like with like.
func runTraced(cfg runConfig) (map[string]float64, *checker, *detail) {
	w, c, d := cfg.w, &checker{}, newDetail(cfg)
	in := w.generate(cfg.n(), cfg.seed)
	gate(cfg, c)

	sess, res, err := w.start(in, cfg.seed, false)
	if !c.check("cold start", err) {
		return nil, c, d
	}
	defer sess.close()
	v := &verifier{w: w}
	c.check("cold start answer", v.verify(res))
	rp, err := w.replay(in)
	if !c.check("replay set-up", err) {
		return nil, c, d
	}
	defer rp.close()

	tr := newTracer()
	var plainS, spannedS, predOverObs, appendS, absorbS, rebuildS []float64
	hits := map[string]float64{}
	var samples []layerSample
	begin := time.Now()
	for i := -1; i < 2 || time.Since(begin).Seconds() < cfg.seconds; i++ {
		// Iteration -1 warms both sides up and is discarded.
		spanned := i >= 0 && i%2 == 1
		root := -1
		runtime.GC()
		if spanned {
			root = tr.begin("e2e.op", -1)
		}
		start := time.Now()
		res, err := sess.op()
		took := time.Since(start).Seconds()
		if spanned {
			tr.end(root)
		}
		if !c.check("op", err) {
			break
		}
		c.check("answer", v.verify(res))
		s, t, band := sess.state()
		runtime.GC()
		ls, err := rp.step(tr, s, t, band)
		if !c.check("replay", err) {
			break
		}
		if i < 0 {
			begin = time.Now()
			continue
		}
		samples = append(samples, ls)
		if spanned {
			spannedS = append(spannedS, took)
		} else {
			plainS = append(plainS, took)
		}
		predOverObs = append(predOverObs, res.PredictedTime/took)
		absorbS = append(absorbS, res.DeltaAbsorbTime.Seconds())
		rebuildS = append(rebuildS, res.StaleRebuildTime.Seconds())
		if ap, ok := sess.(interface{ appendSeconds() float64 }); ok {
			appendS = append(appendS, ap.appendSeconds())
			if spanned {
				tr.child("engine.append", root, 0, ap.appendSeconds())
				tr.child("engine.join", root, ap.appendSeconds(), took-ap.appendSeconds())
			}
		}
		for tier, outcome := range map[string]string{"sample": res.Trace.SampleTier, "plan": res.Trace.PlanTier, "retained": res.Trace.RetainedTier} {
			if outcome == "hit" {
				hits[tier]++
			}
		}
	}
	v.finish(sess, c)
	if len(samples) == 0 || len(spannedS) == 0 {
		return nil, c, d
	}
	if err := tr.write(cfg.outDir, w.name, cfg.seed); err != nil {
		c.check("write trace", err)
	}

	values := medians(samples)
	ops := append(append([]float64(nil), plainS...), spannedS...)
	d.noteOps(cfg, ops)
	values["trace.ops"] = float64(len(samples))
	values["costmodel.pred_over_obs"] = median(predOverObs)
	values["engine.absorb_s"] = median(absorbS)
	values["engine.rebuild_s"] = median(rebuildS)
	if len(appendS) > 0 {
		values["engine.append_s"] = median(appendS)
	}
	for _, tier := range []string{"sample", "plan", "retained"} {
		values["engine.hit."+tier] = hits[tier] / float64(len(ops))
	}
	values["engine.self_s"] = median(ops) - values[stagedKey]
	values["attrib.coverage"] = values[stagedKey] / median(ops)
	values["trace.overhead_frac"] = (median(spannedS) - median(plainS)) / median(plainS)
	if cov := values["attrib.coverage"]; !cfg.smoke && (cov < 0.85 || cov > 1.15) {
		d.warn("attrib.coverage %.2f is outside [0.85, 1.15]: the staged replay does not account for the op", cov)
	}
	return values, c, d
}

// medians returns, for every key any sample has, the median over all samples
// (a sample without the key counts as 0).
func medians(samples []layerSample) map[string]float64 {
	cols := map[string][]float64{}
	for i, ls := range samples {
		for k, v := range ls {
			if cols[k] == nil {
				cols[k] = make([]float64, len(samples))
			}
			cols[k][i] = v
		}
	}
	out := make(map[string]float64, len(cols))
	for k, col := range cols {
		out[k] = median(col)
	}
	return out
}

// peakRSSMiB reads this process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

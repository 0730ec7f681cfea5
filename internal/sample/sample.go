// Package sample draws the input and output samples that drive the
// optimization phase (Figure 5 of the paper). Input samples are uniform
// random samples of S and T; the output sample is obtained by joining the two
// input samples and scaling, which plays the role of the join-sampling method
// of Vitorovic et al. used by the paper: it estimates where in the
// join-attribute space output is produced and how much.
package sample

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// Sample holds the statistics available to a partitioning optimizer. It never
// references the full inputs, mirroring the paper's setting where the
// optimizer sees only fixed-size samples.
type Sample struct {
	// Band is the band-join condition the samples were drawn for.
	Band data.Band

	// S and T are uniform random samples of the inputs.
	S, T *data.Relation
	// SRate and TRate are the sampling fractions |sample| / |input|.
	SRate, TRate float64
	// TotalS and TotalT are the full input cardinalities.
	TotalS, TotalT int

	// OutS and OutT are paired: (OutS.Key(i), OutT.Key(i)) is the i-th output
	// sample pair. OutWeight is the number of real output pairs each sample
	// pair represents, so OutWeight * OutS.Len() estimates |S ⋈B T|.
	OutS, OutT *data.Relation
	OutWeight  float64

	// in is the InputSample that ForBand derived this sample from (nil for a
	// Sample assembled by hand); its cached columns serve InputColumns.
	in *InputSample
}

// InputColumns returns the sorted columnar views of S and T. A sample derived
// by ForBand shares the views its InputSample builds once — every band over
// the same drawn inputs reads the same columns and argsorts — and a Sample
// assembled by hand gets fresh ones from the same constructor. OutS and OutT
// differ per band; their consumer builds those per plan (Columns.Build).
func (s *Sample) InputColumns() (sCols, tCols *Columns) {
	if s.in != nil {
		return s.in.columns()
	}
	return NewColumns(s.S), NewColumns(s.T)
}

// Options configures sampling.
type Options struct {
	// InputSampleSize is the total number of input sample tuples (split
	// between S and T proportionally to their sizes). The paper uses 100,000.
	InputSampleSize int
	// OutputSampleSize caps the number of output sample pairs retained.
	OutputSampleSize int
	// Seed makes sampling deterministic.
	Seed int64
}

// DefaultOptions returns the sampling configuration used by the experiments.
// The paper samples 100,000 input tuples; 32,000 keep the optimization phase
// far below the join cost — the sample join (ForBand) runs on the local
// ε-grid kernel, about 30 ms on two cores for an 8-dimensional band over two
// 16,000-row Pareto samples and 0.05 ms for a later band filtered from a
// covering band's pairs, and the planner is allocation-free and parallel —
// while larger samples mean tighter load estimates and better plans on skewed
// inputs. Inputs smaller than the sample size are used whole.
func DefaultOptions() Options {
	return Options{InputSampleSize: 32000, OutputSampleSize: 4000, Seed: 1}
}

// InputSample is the band-independent half of the optimization-phase sample:
// uniform random samples of S and T plus the sampling rates. Drawing it is the
// only part of the optimization phase that reads the full inputs, so an engine
// serving many queries over the same registered datasets draws it once and
// derives the band-dependent output sample (ForBand) per distinct band.
type InputSample struct {
	// S and T are uniform random samples of the inputs.
	S, T *data.Relation
	// SRate and TRate are the sampling fractions |sample| / |input|.
	SRate, TRate float64
	// TotalS and TotalT are the full input cardinalities.
	TotalS, TotalT int
	// Opts is the configuration the samples were drawn with; ForBand uses its
	// OutputSampleSize bound and derives its deterministic subsample RNG from
	// its Seed.
	Opts Options

	// The sorted columnar views of S and T, built on the first plan that asks
	// (columns) and shared by every Sample ForBand derives. They live and die
	// with this InputSample: Merge returns a new one without them.
	colsOnce     sync.Once
	sCols, tCols *Columns

	// T's dimension-0 order (localjoin.Dim0Order) and its inverse, the rank
	// every sample-join pair carries; built by the first ForBand (dim0).
	rankOnce sync.Once
	tOrder   []int32
	tRank    []uint32

	// mu guards what ForBand caches beyond the first band (rung.go): whether a
	// band was asked yet, the rungs' pair lists, and held, the bytes of the
	// columns, the rank and the lists built so far.
	mu    sync.Mutex
	asked bool
	rungs map[string]*rung
	held  int64
}

// columns returns the views of S and T, building them on first use. Nothing
// may modify S or T after the draw, which is what lets the views be shared.
func (is *InputSample) columns() (sCols, tCols *Columns) {
	is.colsOnce.Do(func() {
		is.sCols, is.tCols = NewColumns(is.S), NewColumns(is.T)
		is.hold(columnsBytes(is.S.Len(), is.S.Dims()) + columnsBytes(is.T.Len(), is.T.Dims()))
	})
	return is.sCols, is.tCols
}

// dim0 returns T's dimension-0 order and rank, building them on first use.
// The order is Dim0Order's, not Columns.Order(0)'s: the two break ties
// differently, and the pair order every recorded sample was drawn in is this
// one's.
func (is *InputSample) dim0() (order []int32, rank []uint32) {
	is.rankOnce.Do(func() {
		is.tOrder = localjoin.Dim0Order(is.T)
		is.tRank = make([]uint32, len(is.tOrder))
		for pos, ti := range is.tOrder {
			is.tRank[ti] = uint32(pos)
		}
		is.hold(int64(len(is.tOrder)) * 8)
	})
	return is.tOrder, is.tRank
}

// hold adds n bytes to what Bytes reports beyond the sampled keys.
func (is *InputSample) hold(n int64) {
	is.mu.Lock()
	is.held += n
	is.mu.Unlock()
}

// Bytes is the sample's resident footprint: the key bytes of both sampled
// relations plus whatever it has built over them so far — the columnar views,
// T's dimension-0 rank and the rungs' pair lists.
func (is *InputSample) Bytes() int64 {
	is.mu.Lock()
	defer is.mu.Unlock()
	return int64(is.S.Len()*is.S.Dims()+is.T.Len()*is.T.Dims())*8 + is.held
}

// DrawInputs draws the band-independent input samples. It is the stage of Draw
// that scans the full inputs; the result can be reused across band conditions
// via ForBand.
func DrawInputs(s, t *data.Relation, opts Options) (*InputSample, error) {
	if s.Dims() != t.Dims() {
		return nil, fmt.Errorf("sample: inputs have %d and %d dimensions", s.Dims(), t.Dims())
	}
	if opts.InputSampleSize <= 0 {
		opts.InputSampleSize = DefaultOptions().InputSampleSize
	}
	if opts.OutputSampleSize <= 0 {
		opts.OutputSampleSize = DefaultOptions().OutputSampleSize
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	total := s.Len() + t.Len()
	if total == 0 {
		return nil, fmt.Errorf("sample: both inputs are empty")
	}
	kS := opts.InputSampleSize * s.Len() / total
	kT := opts.InputSampleSize - kS
	// Proportional integer splitting can starve a heavily outnumbered input
	// (kS == 0 when |S| ≪ |T| and vice versa). A zero-tuple sample collapses
	// the sampling rate to 0, so ScaleS/ScaleT return 0 and every
	// partitioner's load estimates degenerate. Guarantee at least one sample
	// tuple per non-empty input.
	if kS == 0 && s.Len() > 0 {
		kS = 1
		if kT > 1 {
			kT--
		}
	}
	if kT == 0 && t.Len() > 0 {
		kT = 1
		if kS > 1 {
			kS--
		}
	}
	sSample := Uniform(s, kS, rng)
	tSample := Uniform(t, kT, rng)

	return &InputSample{
		S:      sSample,
		T:      tSample,
		SRate:  rate(sSample.Len(), s.Len()),
		TRate:  rate(tSample.Len(), t.Len()),
		TotalS: s.Len(),
		TotalT: t.Len(),
		Opts:   opts,
	}, nil
}

// ForBand derives the full optimizer-facing Sample for one band condition by
// joining the cached input samples. It never touches the full inputs, so
// replanning the same dataset pair for a new ε costs a sample-sized join, not
// an input scan — or, from the second band on, a filter over the pairs of a
// covering band's join (rung.go). The output subsample's RNG is derived
// deterministically from the draw seed (not from shared RNG state), so
// repeated calls with the same band produce bit-identical samples, whichever
// bands were asked before — the property the engine's plan-cache equivalence
// guarantees rest on.
func (is *InputSample) ForBand(band data.Band) (*Sample, error) {
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if is.S.Dims() != band.Dims() {
		return nil, fmt.Errorf("sample: band condition has %d dimensions but samples have %d",
			band.Dims(), is.S.Dims())
	}
	out := &Sample{
		Band:   band,
		S:      is.S,
		T:      is.T,
		SRate:  is.SRate,
		TRate:  is.TRate,
		TotalS: is.TotalS,
		TotalT: is.TotalT,
		in:     is,
	}
	order, rank := is.dim0()
	// The golden-ratio offset decorrelates this stream from the input-sampling
	// stream seeded with Opts.Seed itself.
	rng := rand.New(rand.NewSource(is.Opts.Seed + 0x9e3779b9))
	out.sampleOutput(is.pairs(band, order, rank), order, is.Opts.OutputSampleSize, rng)
	return out, nil
}

// Merge returns a new InputSample covering the inputs after deltaS rows were
// appended to S and deltaT rows to T (either delta may be nil or empty). The
// receiver is never mutated — callers swap in the returned snapshot — and the
// full base relations are never rescanned: each side's sample is advanced by
// continuing the reservoir over just the delta rows.
//
// The math: a size-k reservoir over a stream of n items holds a uniform
// k-subset of the n. Continuing the same algorithm over d more items — item
// n+i replaces a uniformly chosen slot with probability k/(n+i+1) — yields a
// uniform k-subset of all n+d items. The continuation RNG is derived
// deterministically from (Opts.Seed, covered cardinalities), so merging the
// same delta onto the same sample always produces the same result, but each
// successive merge draws from a fresh stream. A side whose sample still holds
// the whole base (|sample| == |input|) first grows toward its proportional
// share of InputSampleSize before replacement starts, exactly as a reservoir
// filling from the extended stream would.
func (is *InputSample) Merge(deltaS, deltaT *data.Relation) (*InputSample, error) {
	dS, dT := 0, 0
	if deltaS != nil {
		if deltaS.Dims() != is.S.Dims() {
			return nil, fmt.Errorf("sample: S delta has %d dimensions, sample has %d", deltaS.Dims(), is.S.Dims())
		}
		dS = deltaS.Len()
	}
	if deltaT != nil {
		if deltaT.Dims() != is.T.Dims() {
			return nil, fmt.Errorf("sample: T delta has %d dimensions, sample has %d", deltaT.Dims(), is.T.Dims())
		}
		dT = deltaT.Len()
	}
	if dS == 0 && dT == 0 {
		return is, nil
	}
	size := is.Opts.InputSampleSize
	if size <= 0 {
		size = DefaultOptions().InputSampleSize
	}
	newTotalS, newTotalT := is.TotalS+dS, is.TotalT+dT
	// Per-side growth caps, proportional to the new cardinalities like
	// DrawInputs' split (with the same ≥1-per-non-empty-side guarantee). Only
	// sides still holding their whole base grow; a side already down-sampled
	// keeps its reservoir size and only replaces.
	targetS := size * newTotalS / (newTotalS + newTotalT)
	targetT := size - targetS
	if targetS == 0 && newTotalS > 0 {
		targetS = 1
	}
	if targetT == 0 && newTotalT > 0 {
		targetT = 1
	}
	rng := rand.New(rand.NewSource(mergeSeed(is.Opts.Seed, is.TotalS, is.TotalT)))
	out := &InputSample{
		S:      mergeSide(is.S, is.TotalS, deltaS, targetS, rng),
		T:      mergeSide(is.T, is.TotalT, deltaT, targetT, rng),
		TotalS: newTotalS,
		TotalT: newTotalT,
		Opts:   is.Opts,
	}
	out.SRate = rate(out.S.Len(), newTotalS)
	out.TRate = rate(out.T.Len(), newTotalT)
	return out, nil
}

// mergeSide continues one side's reservoir over the delta rows. cur is the
// current sample of total base rows; it is cloned, never mutated.
func mergeSide(cur *data.Relation, total int, delta *data.Relation, target int, rng *rand.Rand) *data.Relation {
	if delta == nil || delta.Len() == 0 {
		return cur
	}
	k := cur.Len()
	out := cur.Clone(cur.Name())
	if k == total {
		// The sample is the whole base: the reservoir never filled, so the
		// extended stream first fills it to target (delta rows append whole),
		// then replacement takes over.
		if grow := target - k; grow > 0 {
			out.Reserve(min(grow, delta.Len()))
		}
		for di := 0; di < delta.Len(); di++ {
			if out.Len() < target {
				out.AppendKey(delta.Key(di))
				continue
			}
			if j := rng.Intn(total + di + 1); j < target {
				out.SetKey(j, delta.Key(di))
			}
		}
		return out
	}
	// A proper size-k reservoir of the base: continue algorithm R over the
	// delta items at stream positions total, total+1, ….
	for di := 0; di < delta.Len(); di++ {
		if j := rng.Intn(total + di + 1); j < k {
			out.SetKey(j, delta.Key(di))
		}
	}
	return out
}

// mergeSeed derives the deterministic continuation seed for a merge that has
// covered the given base cardinalities (splitmix-style finalizer, so nearby
// coverage points decorrelate).
func mergeSeed(seed int64, coveredS, coveredT int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(coveredS+1) + 0xbf58476d1ce4e5b9*uint64(coveredT+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z)
}

// Draw samples the inputs and the output for the given band condition. It is
// DrawInputs followed by ForBand; callers that serve several bands over the
// same inputs should hold on to the InputSample instead.
func Draw(s, t *data.Relation, band data.Band, opts Options) (*Sample, error) {
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if s.Dims() != band.Dims() || t.Dims() != band.Dims() {
		return nil, fmt.Errorf("sample: band condition has %d dimensions but inputs have %d and %d",
			band.Dims(), s.Dims(), t.Dims())
	}
	in, err := DrawInputs(s, t, opts)
	if err != nil {
		return nil, err
	}
	return in.ForBand(band)
}

func rate(k, n int) float64 {
	if n == 0 {
		return 1
	}
	return float64(k) / float64(n)
}

// Uniform returns a uniform random sample of k tuples from r (without
// replacement when k <= r.Len(), otherwise the full relation).
func Uniform(r *data.Relation, k int, rng *rand.Rand) *data.Relation {
	n := r.Len()
	if k >= n {
		return r.Clone(r.Name() + "-sample")
	}
	out := data.NewRelationCapacity(r.Name()+"-sample", r.Dims(), k)
	// Reservoir sampling keeps memory proportional to k and makes a single
	// pass over the input, which matches how a map task would sample chunks.
	reservoir := make([]int, k)
	for i := 0; i < n; i++ {
		if i < k {
			reservoir[i] = i
			continue
		}
		j := rng.Intn(i + 1)
		if j < k {
			reservoir[j] = i
		}
	}
	for _, i := range reservoir {
		out.AppendKey(r.Key(i))
	}
	return out
}

// sampleOutput keeps at most maxPairs of the sample join's pairs, recording
// the scale factor that converts sample-pair counts to estimated real output
// counts. collected holds every pair, sorted; it is shuffled in place.
//
// The pair order decides which pairs a subsample keeps, so it is fixed
// independently of the join kernel: S index ascending and, within one S
// tuple, T in dimension-0 order — what the one-dimensional sorted probe this
// join used to run emitted. Each pair is (S index, T rank) packed into one
// sortable word (InputSample.join), so the kernel's own order — and how the
// join splits the probe — never shows.
func (s *Sample) sampleOutput(collected []uint64, order []int32, maxPairs int, rng *rand.Rand) {
	d := s.Band.Dims()
	outS := data.NewRelation("outS", d)
	outT := data.NewRelation("outT", d)
	kept := collected
	if len(collected) > maxPairs {
		rng.Shuffle(len(collected), func(i, j int) { collected[i], collected[j] = collected[j], collected[i] })
		kept = collected[:maxPairs]
	}
	for _, p := range kept {
		outS.AppendKey(s.S.Key(int(p >> 32)))
		outT.AppendKey(s.T.Key(int(order[uint32(p)])))
	}
	s.OutS, s.OutT = outS, outT
	// Each sample pair came from the cross product of the samples, which is a
	// (SRate * TRate) fraction of the full cross product.
	pairWeight := 1.0
	if s.SRate > 0 && s.TRate > 0 {
		pairWeight = 1 / (s.SRate * s.TRate)
	}
	if len(kept) > 0 && len(collected) > len(kept) {
		pairWeight *= float64(len(collected)) / float64(len(kept))
	}
	s.OutWeight = pairWeight
}

// probeChunk is the number of S rows a sample-join goroutine claims at a time:
// small enough to balance a skewed probe order, large enough that the claim is
// free.
const probeChunk = 512

// join joins the two input samples under band and returns every pair as
// uint64(S index)<<32 | rank[T index], sorted. The T-side structure is built
// once and the S side probed in chunks on up to GOMAXPROCS goroutines, each
// collecting into its own list.
func (is *InputSample) join(band data.Band, rank []uint32) []uint64 {
	collectInto := func(dst *[]uint64) localjoin.Emit {
		return func(si, ti int, _, _ []float64) {
			*dst = append(*dst, uint64(si)<<32|uint64(rank[ti]))
		}
	}
	prober := localjoin.PrepareOnce(is.S, is.T, band)
	// The next plan's sample join rebuilds in this one's buffers.
	defer localjoin.Release(prober)
	if prober == nil {
		// Empty or tiny samples: the nested loop, nothing to share.
		var collected []uint64
		localjoin.NestedLoop{}.Join(is.S, is.T, band, collectInto(&collected))
		slices.Sort(collected)
		return collected
	}
	ns := is.S.Len()
	lists := make([][]uint64, min(runtime.GOMAXPROCS(0), (ns+probeChunk-1)/probeChunk))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Collected through a variable of the goroutine's own, not
			// &lists[w]: neighbouring slice headers share a cache line.
			var list []uint64
			emit := collectInto(&list)
			for {
				lo := int(next.Add(probeChunk)) - probeChunk
				if lo >= ns {
					break
				}
				prober.ProbeRange(is.S, lo, min(lo+probeChunk, ns), emit)
			}
			lists[w] = list
		}()
	}
	wg.Wait()
	collected := slices.Concat(lists...)
	slices.Sort(collected)
	return collected
}

// EstimatedOutput returns the estimated size of the full join output.
func (s *Sample) EstimatedOutput() float64 {
	return float64(s.OutS.Len()) * s.OutWeight
}

// ScaleS converts a count of S-sample tuples into an estimate of real S
// tuples.
func (s *Sample) ScaleS(count int) float64 {
	if s.SRate == 0 {
		return 0
	}
	return float64(count) / s.SRate
}

// ScaleT converts a count of T-sample tuples into an estimate of real T
// tuples.
func (s *Sample) ScaleT(count int) float64 {
	if s.TRate == 0 {
		return 0
	}
	return float64(count) / s.TRate
}

// ScaleOut converts a count of output-sample pairs into an estimate of real
// output pairs.
func (s *Sample) ScaleOut(count int) float64 {
	return float64(count) * s.OutWeight
}

package partition

import (
	"slices"
)

// Schedule maps each partition index to the worker that will process it.
type Schedule []int

// LPT assigns partitions to workers with the greedy longest-processing-time
// rule: partitions are considered in decreasing load order and each is placed
// on the currently least-loaded worker. LPT is within 4/3 of the optimal
// makespan and models the dynamic load balancing that cluster schedulers
// (YARN in the paper's setup) perform at runtime.
func LPT(loads []float64, workers int) Schedule {
	return LPTInto(loads, workers, nil)
}

// LPTScratch holds the reusable working buffers of LPTInto. The zero value is
// ready to use; buffers grow to the largest problem seen and are reused across
// calls, so a caller scheduling every iteration (e.g. RecPart's per-iteration
// statistics) allocates nothing in steady state.
type LPTScratch struct {
	order      []int
	heapLoad   []float64
	heapWorker []int
	sched      Schedule
}

// LPTInto is LPT scheduling into reusable buffers. The returned schedule
// aliases the scratch and is only valid until the next call with the same
// scratch; a nil scratch allocates fresh buffers (exactly LPT). Given equal
// inputs, LPT and LPTInto produce identical schedules regardless of scratch
// reuse. The worker min-heap is stored as two parallel slices and resifted in
// place, avoiding the interface boxing of container/heap on what is the
// optimizer's per-iteration hot path.
func LPTInto(loads []float64, workers int, s *LPTScratch) Schedule {
	if workers < 1 {
		workers = 1
	}
	if s == nil {
		s = &LPTScratch{}
	}
	order := resizeInts(&s.order, len(loads))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case loads[a] > loads[b]:
			return -1
		case loads[a] < loads[b]:
			return 1
		}
		return 0
	})

	// All workers start at load zero, which is already a valid min-heap in
	// worker order.
	hl := resizeFloats(&s.heapLoad, workers)
	hw := resizeInts(&s.heapWorker, workers)
	for w := 0; w < workers; w++ {
		hl[w] = 0
		hw[w] = w
	}

	sched := s.sched[:0]
	if cap(sched) < len(loads) {
		sched = make(Schedule, 0, len(loads))
	}
	sched = sched[:len(loads)]
	s.sched = sched
	for _, p := range order {
		sched[p] = hw[0]
		hl[0] += loads[p]
		siftDownLoad(hl, hw, 0)
	}
	return sched
}

// siftDownLoad restores the min-heap property of the parallel (load, worker)
// slices after the root's load increased.
func siftDownLoad(load []float64, worker []int, i int) {
	n := len(load)
	for {
		m := i
		if l := 2*i + 1; l < n && load[l] < load[m] {
			m = l
		}
		if r := 2*i + 2; r < n && load[r] < load[m] {
			m = r
		}
		if m == i {
			return
		}
		load[i], load[m] = load[m], load[i]
		worker[i], worker[m] = worker[m], worker[i]
		i = m
	}
}

// resizeInts returns *buf with length n (contents unspecified).
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// resizeFloats returns *buf with length n (contents unspecified).
func resizeFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Place returns where a plan's partitions run on workers workers: where the
// plan's WorkerPlacer puts a partition, when the plan is one, and otherwise
// where greedy LPT over loads() — the partitions' observed or estimated
// loads, asked for only by plans that need them — puts it. A partition the
// placer puts outside [0, workers), or one past the loads, goes to the worker
// its index hashes to. Both data planes and EstimatePlan place with it.
func Place(plan Plan, workers int, loads func() []float64) func(pid int) int {
	placer, ok := plan.(WorkerPlacer)
	var sched Schedule
	if !ok {
		sched = LPT(loads(), workers)
	}
	return func(pid int) int {
		w := -1
		if ok {
			w = placer.PlaceWorker(pid, workers)
		} else if pid < len(sched) {
			w = sched[pid]
		}
		if w < 0 || w >= workers {
			w = int(hash64(uint64(pid)) % uint64(workers))
		}
		return w
	}
}

// hash64 is the splitmix64 finalizer, used for cheap deterministic hashing of
// partition indices and tuple IDs throughout the repository.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashID exposes hash64 combined with a salt for plans that need a
// deterministic pseudo-random function of a tuple ID (e.g. 1-Bucket row and
// column choices).
func HashID(id int64, salt uint64) uint64 {
	return hash64(uint64(id)*0x9e3779b97f4a7c15 ^ hash64(salt))
}

package mat

import (
	"runtime"
	"sync"
)

// parallelThreshold is the work size (rows*cols*inner) above which the
// MulAuto…To kernels fan out across cores; below it the single-threaded
// kernel's cache behaviour wins.
const parallelThreshold = 1 << 18

// MulAutoTo stores a*b into m and returns m, choosing between the
// single-threaded tiled kernel and a row-sharded parallel kernel based on
// problem size. The result is identical to m.Mul(a, b). m must not alias
// a or b.
func MulAutoTo(m, a, b *Matrix) *Matrix {
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		return m.Mul(a, b)
	}
	return mulParallelTo(m, a, b, 0)
}

// MulAutoBTTo stores a·bᵀ into m and returns m, with the same
// serial/parallel policy as MulAutoTo. a is M x K, b is N x K and m is
// M x N; m must not alias a or b. The result is bit-identical to
// m.Mul(a, b.T()) without materialising the transpose.
func MulAutoBTTo(m, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("mat: MulAutoBTTo inner dimension mismatch")
	}
	if m.Rows != a.Rows || m.Cols != b.Rows {
		panic("mat: MulAutoBTTo output shape mismatch")
	}
	work := a.Rows * a.Cols * b.Rows
	workers := shardWorkers(work, 0, a.Rows)
	if workers <= 1 {
		mulBTRows(m.Data, a.Data, b.Data, a.Cols, b.Rows, 0, a.Rows)
		return m
	}
	forEachRowShard(workers, a.Rows, func(r0, r1 int) {
		mulBTRows(m.Data, a.Data, b.Data, a.Cols, b.Rows, r0, r1)
	})
	return m
}

// MulAutoATTo stores aᵀ·b into m and returns m, with the same
// serial/parallel policy as MulAutoTo. a is K x M, b is K x N and m is
// M x N; m must not alias a or b. The result is bit-identical to
// m.Mul(a.T(), b) without materialising the transpose.
func MulAutoATTo(m, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("mat: MulAutoATTo inner dimension mismatch")
	}
	if m.Rows != a.Cols || m.Cols != b.Cols {
		panic("mat: MulAutoATTo output shape mismatch")
	}
	work := a.Cols * a.Rows * b.Cols
	workers := shardWorkers(work, 0, a.Cols)
	if workers <= 1 {
		mulATRows(m.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, 0, a.Cols)
		return m
	}
	forEachRowShard(workers, a.Cols, func(r0, r1 int) {
		mulATRows(m.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, r0, r1)
	})
	return m
}

// mulParallelTo stores a*b into m with the row range sharded across
// workers goroutines (0 = GOMAXPROCS). Shards write disjoint output rows,
// so no synchronisation is needed beyond the final join. Workers are
// clamped to the number of microMR-row blocks, so tiny matrices never
// spawn more goroutines than there are register-tile row blocks; at one
// worker the serial kernel runs, which reproduces historical results
// exactly. Each shard runs the row kernel on b as stored, so the Go path
// packs b once per shard.
func mulParallelTo(m, a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic("mat: mulParallelTo inner dimension mismatch")
	}
	if m.Rows != a.Rows || m.Cols != b.Cols {
		panic("mat: mulParallelTo output shape mismatch")
	}
	rowBlocks := (a.Rows + microMR - 1) / microMR
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rowBlocks {
		workers = rowBlocks
	}
	if workers <= 1 {
		return m.Mul(a, b)
	}
	blocksPer := (rowBlocks + workers - 1) / workers
	chunk := blocksPer * microMR // shard boundaries stay tile-aligned
	var wg sync.WaitGroup
	for r0 := 0; r0 < a.Rows; r0 += chunk {
		r1 := r0 + chunk
		if r1 > a.Rows {
			r1 = a.Rows
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			mulRows(m.Data, a.Data, b.Data, a.Cols, b.Cols, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
	return m
}

// shardWorkers returns how many goroutines to use for `work` total
// flops over `rows` independent output rows: 1 below the parallel
// threshold or on a single-core box, never more than rows.
func shardWorkers(work, workers, rows int) int {
	if work < parallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	return workers
}

// forEachRowShard splits [0, rows) into `workers` contiguous chunks and
// runs fn concurrently on each.
func forEachRowShard(workers, rows int, fn func(r0, r1 int)) {
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for r0 := 0; r0 < rows; r0 += chunk {
		r1 := r0 + chunk
		if r1 > rows {
			r1 = rows
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			fn(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

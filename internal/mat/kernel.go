package mat

import "sync"

// The five hot loops of the package run through these variables. They
// hold the portable Go loops; on amd64, init in kernel_amd64.go swaps in
// the AVX kernels once, before main runs, when CPUID and XGETBV report
// AVX with YMM state enabled by the OS. Both give the same bits for every
// output, so the Go loops serve as the fallback on every other CPU and
// GOARCH and as the reference the vector kernels are tested against.
var (
	mulVec    = mulVecGo    // MulVecTo: dst = a·x
	tmulVec   = tmulVecGo   // TMulVecTo: dst = aᵀ·x
	addOuter  = addOuterGo  // AddOuter: m += a·bᵀ
	mulRows   = mulRowsGo   // rows [r0, r1) of out = a·b (Mul)
	mulATRows = mulATRowsGo // rows [r0, r1) of out = aᵀ·b (MulATTo)
)

// Packed register-tiled matmul kernel.
//
// The kernel copies b into column panels of microNR columns (k-major inside
// each panel) so the inner loop streams both operands sequentially, then
// computes microMR x microNR output tiles in registers. Every output element
// still accumulates its k terms in strictly increasing k order — the same
// term sequence as the historical blocked kernel — so results are
// bit-identical to pre-kernel builds; only the instruction schedule and the
// memory traffic change. For the same reason the kernel must not use fused
// multiply-add (math.FMA) or reassociate the per-element sums.
//
// Dropping the historical `if av == 0 { continue }` branch is also
// bit-safe for finite inputs: 0*bv contributes a signed zero, and IEEE-754
// round-to-nearest addition never turns a +0 accumulator into -0.

const (
	// microMR x microNR is the register tile: 8 accumulators plus 4 b
	// values and 2 a values fit comfortably in amd64's 16 XMM registers.
	microMR = 2
	microNR = 4
)

// packPool recycles the packed copies of b (and other kernel scratch)
// across calls so steady-state matmuls allocate nothing.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// borrowFloats returns a pooled scratch slice of length n (contents
// undefined). Callers must hand it back with returnFloats.
func borrowFloats(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func returnFloats(p *[]float64) { packPool.Put(p) }

// packedLen returns the packed-panel buffer length for a k x n matrix.
func packedLen(k, n int) int {
	panels := (n + microNR - 1) / microNR
	return panels * k * microNR
}

// packB lays b (k x n row-major) out as ceil(n/microNR) panels of microNR
// columns, k-major inside each panel, zero-padding the last panel:
// dst[(p*k+kk)*microNR+c] = b[kk][p*microNR+c]. The micro-kernel then reads
// each panel sequentially regardless of n.
func packB(dst, b []float64, k, n int) {
	panels := (n + microNR - 1) / microNR
	for p := 0; p < panels; p++ {
		j := p * microNR
		w := n - j
		if w > microNR {
			w = microNR
		}
		dp := dst[p*k*microNR:]
		for kk := 0; kk < k; kk++ {
			brow := b[kk*n+j : kk*n+j+w]
			q := dp[kk*microNR : kk*microNR+microNR]
			switch w {
			case 4:
				q[0], q[1], q[2], q[3] = brow[0], brow[1], brow[2], brow[3]
			case 3:
				q[0], q[1], q[2], q[3] = brow[0], brow[1], brow[2], 0
			case 2:
				q[0], q[1], q[2], q[3] = brow[0], brow[1], 0, 0
			default:
				q[0], q[1], q[2], q[3] = brow[0], 0, 0, 0
			}
		}
	}
}

// mulPackedRows computes rows [r0, r1) of out = a·b (a: m x k, b packed by
// packB, out: m x n) using microMR x microNR register tiles. Rows outside
// [r0, r1) are untouched, so disjoint row ranges can run concurrently.
func mulPackedRows(out, a, bp []float64, k, n, r0, r1 int) {
	if n == 0 {
		return
	}
	panels := (n + microNR - 1) / microNR
	i := r0
	for ; i+microMR <= r1; i += microMR {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		o0 := out[i*n : i*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		for p := 0; p < panels; p++ {
			pan := bp[p*k*microNR : (p+1)*k*microNR]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			for kk := 0; kk < k; kk++ {
				q := pan[kk*microNR : kk*microNR+microNR]
				b0, b1, b2, b3 := q[0], q[1], q[2], q[3]
				av0 := a0[kk]
				c00 += av0 * b0
				c01 += av0 * b1
				c02 += av0 * b2
				c03 += av0 * b3
				av1 := a1[kk]
				c10 += av1 * b0
				c11 += av1 * b1
				c12 += av1 * b2
				c13 += av1 * b3
			}
			j := p * microNR
			switch n - j {
			case 1:
				o0[j] = c00
				o1[j] = c10
			case 2:
				o0[j], o0[j+1] = c00, c01
				o1[j], o1[j+1] = c10, c11
			case 3:
				o0[j], o0[j+1], o0[j+2] = c00, c01, c02
				o1[j], o1[j+1], o1[j+2] = c10, c11, c12
			default:
				o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
				o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
			}
		}
	}
	for ; i < r1; i++ {
		a0 := a[i*k : i*k+k]
		o0 := out[i*n : i*n+n]
		for p := 0; p < panels; p++ {
			pan := bp[p*k*microNR : (p+1)*k*microNR]
			var c00, c01, c02, c03 float64
			for kk := 0; kk < k; kk++ {
				q := pan[kk*microNR : kk*microNR+microNR]
				av0 := a0[kk]
				c00 += av0 * q[0]
				c01 += av0 * q[1]
				c02 += av0 * q[2]
				c03 += av0 * q[3]
			}
			j := p * microNR
			switch n - j {
			case 1:
				o0[j] = c00
			case 2:
				o0[j], o0[j+1] = c00, c01
			case 3:
				o0[j], o0[j+1], o0[j+2] = c00, c01, c02
			default:
				o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			}
		}
	}
}

// mulRowsGo computes rows [r0, r1) of out = a·b (a: m x k, b: k x n)
// by packing b and running the tiled kernel. out must not alias a or b.
func mulRowsGo(out, a, b []float64, k, n, r0, r1 int) {
	if r0 >= r1 || n == 0 {
		return
	}
	bp := borrowFloats(packedLen(k, n))
	packB(*bp, b, k, n)
	mulPackedRows(out, a, *bp, k, n, r0, r1)
	returnFloats(bp)
}

// mulBTRows computes rows [r0, r1) of out = a·bᵀ (a: m x k, b: n x k,
// out: m x n) as 2x2 register tiles of row dot products. b's rows are
// contiguous, so no packing pass is needed. Accumulation per output
// element is in increasing k order, matching Mul(a, b.T()) bit-for-bit.
func mulBTRows(out, a, b []float64, k, n, r0, r1 int) {
	i := r0
	for ; i+2 <= r1; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		o0 := out[i*n : i*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			var c00, c01, c10, c11 float64
			for kk := 0; kk < k; kk++ {
				av0, av1 := a0[kk], a1[kk]
				bv0, bv1 := b0[kk], b1[kk]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c10 += av1 * bv0
				c11 += av1 * bv1
			}
			o0[j], o0[j+1] = c00, c01
			o1[j], o1[j+1] = c10, c11
		}
		if j < n {
			b0 := b[j*k : j*k+k]
			var c00, c10 float64
			for kk := 0; kk < k; kk++ {
				bv0 := b0[kk]
				c00 += a0[kk] * bv0
				c10 += a1[kk] * bv0
			}
			o0[j], o1[j] = c00, c10
		}
	}
	for ; i < r1; i++ {
		a0 := a[i*k : i*k+k]
		o0 := out[i*n : i*n+n]
		for j := 0; j < n; j++ {
			b0 := b[j*k : j*k+k]
			var c float64
			for kk := 0; kk < k; kk++ {
				c += a0[kk] * b0[kk]
			}
			o0[j] = c
		}
	}
}

// mulATRowsGo computes rows [r0, r1) of out = aᵀ·b (a: k x m, b: k x n,
// out: m x n) without materialising the transpose: the k loop is innermost
// with strided reads of a's columns, and each output element accumulates
// in increasing k order, matching Mul(a.T(), b) bit-for-bit. Outputs run
// as 2-row x 4-column register tiles, so eight independent sums share
// each load of a and b.
func mulATRowsGo(out, a, b []float64, k, m, n, r0, r1 int) {
	i := r0
	for ; i+2 <= r1; i += 2 {
		o0 := out[i*n : i*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			for kk := 0; kk < k; kk++ {
				ar := a[kk*m+i : kk*m+i+2]
				br := b[kk*n+j : kk*n+j+4]
				av0, av1 := ar[0], ar[1]
				b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
				c00 += av0 * b0
				c01 += av0 * b1
				c02 += av0 * b2
				c03 += av0 * b3
				c10 += av1 * b0
				c11 += av1 * b1
				c12 += av1 * b2
				c13 += av1 * b3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float64
			for kk := 0; kk < k; kk++ {
				bv := b[kk*n+j]
				c0 += a[kk*m+i] * bv
				c1 += a[kk*m+i+1] * bv
			}
			o0[j], o1[j] = c0, c1
		}
	}
	for ; i < r1; i++ {
		o := out[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			for kk := 0; kk < k; kk++ {
				av := a[kk*m+i]
				br := b[kk*n+j : kk*n+j+4]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
			}
			o[j], o[j+1], o[j+2], o[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float64
			for kk := 0; kk < k; kk++ {
				c += a[kk*m+i] * b[kk*n+j]
			}
			o[j] = c
		}
	}
}

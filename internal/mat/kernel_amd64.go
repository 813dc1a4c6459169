package mat

// The AVX kernels. Each YMM register holds four different outputs, never
// parts of one sum: every output starts from +0 and adds its products in
// the Go loop's order, one VMULPD then one VADDPD per term (no fused
// multiply-add), so it gets the bits the Go loop gives it. AddOuter and
// TMulVecTo keep their exact-zero row skips, which decide whether an Inf
// or NaN in a skipped row reaches the result. The assembly covers whole
// groups of four outputs; the Go code below finishes the n mod 4 column
// tails and, for MulVecTo, the rows mod 4.
//
// The kernels use only VEX-encoded instructions and end every path with
// VZEROUPPER: a legacy SSE instruction (such as the MOVSD and ADDSD the
// Go compiler emits) that runs while the upper YMM halves are dirty pays
// a state transition or a false dependency on every use, which costs
// several times the kernels' gain without changing a bit.

// haveAVX reports whether this CPU runs the AVX kernels: CPUID says it has
// AVX and OSXSAVE, and XGETBV says the OS saves the XMM and YMM state.
var haveAVX = detectAVX()

func init() {
	if haveAVX {
		mulVec = mulVecAVX
		tmulVec = tmulVecAVX
		addOuter = addOuterAVX
		mulRows = mulRowsAVX
		mulATRows = mulATRowsAVX
	}
}

func detectAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	return xgetbv()&xmmYmm == xmmYmm
}

// cpuid returns the registers CPUID sets for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0.
func xgetbv() (eax uint32)

// mulVec4 sets dst[i] = Σ_{j<len(x)} a[i*stride+j]·x[j] for every i <
// len(dst). len(dst) and len(x) are multiples of 4.
//
//go:noescape
func mulVec4(dst, a, x []float64, stride int)

// tmulVec4 sets dst[j] = Σ_i x[i]·a[i*stride+j] for every j < len(dst),
// over the rows i < len(x) whose x[i] is not exactly zero. len(dst) is a
// multiple of 4.
//
//go:noescape
func tmulVec4(dst, a, x []float64, stride int)

// addOuter4 adds a[i]·b[j] to m[i*stride+j] for every i < len(a) whose
// a[i] is not exactly zero and every j < len(b). len(b) is a multiple
// of 4.
//
//go:noescape
func addOuter4(m, a, b []float64, stride int)

// mulStrided4 sets out[i*n+j] = Σ_{kk<k} a[i*ars+kk*aks]·b[kk*n+j] for
// every i < rows and j < n&^3.
//
//go:noescape
func mulStrided4(out, a, b []float64, rows, k, n, ars, aks int)

func mulVecAVX(dst, a, x []float64) {
	n := len(x)
	a = a[:len(dst)*n]
	r4, n4 := len(dst)&^3, n&^3
	if r4 == 0 || n4 == 0 {
		mulVecGo(dst, a, x)
		return
	}
	mulVec4(dst[:r4], a, x[:n4], n)
	for i := 0; i < r4 && n4 < n; i++ {
		row := a[i*n : i*n+n]
		s := dst[i]
		for j := n4; j < n; j++ {
			s += row[j] * x[j]
		}
		dst[i] = s
	}
	if r4 < len(dst) {
		mulVecGo(dst[r4:], a[r4*n:], x)
	}
}

func tmulVecAVX(dst, a, x []float64) {
	n := len(dst)
	a = a[:len(x)*n]
	n4 := n &^ 3
	if n4 == 0 {
		tmulVecGo(dst, a, x)
		return
	}
	tmulVec4(dst[:n4], a, x, n)
	if n4 == n {
		return
	}
	tail := dst[n4:]
	clear(tail)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a[i*n+n4 : i*n+n]
		for j, v := range row {
			tail[j] += xv * v
		}
	}
}

func addOuterAVX(m, a, b []float64) {
	n := len(b)
	m = m[:len(a)*n]
	n4 := n &^ 3
	if n4 == 0 {
		addOuterGo(m, a, b)
		return
	}
	addOuter4(m, a, b[:n4], n)
	if n4 == n {
		return
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := m[i*n+n4 : i*n+n]
		for j, bv := range b[n4:] {
			row[j] += av * bv
		}
	}
}

func mulRowsAVX(out, a, b []float64, k, n, r0, r1 int) {
	if r0 >= r1 || n == 0 {
		return
	}
	mulStridedAVX(out[r0*n:r1*n], a[r0*k:r1*k], b[:k*n], r1-r0, k, n, k, 1)
}

func mulATRowsAVX(out, a, b []float64, k, m, n, r0, r1 int) {
	if r0 >= r1 || n == 0 {
		return
	}
	if k > 0 {
		a = a[r0 : (k-1)*m+r1] // row i of aᵀ starts at a[i] and steps by m
	}
	mulStridedAVX(out[r0*n:r1*n], a, b[:k*n], r1-r0, k, n, 1, m)
}

// mulStridedAVX sets out[i*n+j] = Σ_{kk<k} a[i*ars+kk*aks]·b[kk*n+j] for
// every i < rows and j < n, each sum from +0 in increasing kk: the
// element order of mulPackedRows when ars, aks = k, 1, and of
// mulATRowsGo when ars, aks = 1, m. The caller has checked that every
// index lies inside a, b and out.
func mulStridedAVX(out, a, b []float64, rows, k, n, ars, aks int) {
	n4 := n &^ 3
	if n4 > 0 {
		mulStrided4(out, a, b, rows, k, n, ars, aks)
	}
	for i := 0; i < rows && n4 < n; i++ {
		o := out[i*n : i*n+n]
		for j := n4; j < n; j++ {
			var c float64
			for kk := 0; kk < k; kk++ {
				c += a[i*ars+kk*aks] * b[kk*n+j]
			}
			o[j] = c
		}
	}
}

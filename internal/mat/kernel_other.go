//go:build !amd64

package mat

// haveAVX is false off amd64: the Go loops are the only kernels.
const haveAVX = false

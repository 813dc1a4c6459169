//go:build !amd64

package mat

// Off amd64 the Go loops are the only kernels.
const (
	haveAVX           = false
	vectorActivations = false
)

//go:build !amd64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// curg returns the running goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). It costs tens of microseconds, against
// nanoseconds for the amd64 version, so traced runs there carry more
// overhead.
func curg() uintptr {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return uintptr(id)
}

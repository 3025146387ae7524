package main

// curg returns the address of the running goroutine's runtime record:
// a nanosecond-cheap identity that stays fixed while the goroutine
// lives, which is as long as any span it opened stays open.
func curg() uintptr

// Package panics carries a panic from a goroutine an analysis starts itself
// (the Tier 2 racer pool, the guarded seed workers) back to the goroutine
// that waits for it, as an ordinary error. A panic on a worker goroutine
// cannot be recovered by its caller; left alone it kills the process, and
// with it every other request a daemon is serving.
package panics

import (
	"fmt"
	"runtime/debug"
)

// Error is a recovered panic: where it happened, the panic value, and the
// panicking goroutine's stack.
type Error struct {
	Where string
	Value any
	Stack []byte
}

func (e *Error) Error() string { return fmt.Sprintf("%s panicked: %v", e.Where, e.Value) }

// Recover, deferred directly (defer panics.Recover(&err, …)), turns a panic
// of the deferring function into *err = &Error{…}, with Where formatted from
// format and args. Without a panic it does nothing.
func Recover(err *error, format string, args ...any) {
	if p := recover(); p != nil {
		*err = &Error{Where: fmt.Sprintf(format, args...), Value: p, Stack: debug.Stack()}
	}
}

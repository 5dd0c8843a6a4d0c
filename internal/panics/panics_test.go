package panics

import (
	"errors"
	"strings"
	"testing"
)

func TestRecoverOnWorkerGoroutine(t *testing.T) {
	errc := make(chan error)
	go func() {
		var err error
		defer func() { errc <- err }()
		defer Recover(&err, "stage %s", "guarded")
		panic("boom")
	}()
	err := <-errc
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if pe.Where != "stage guarded" || pe.Value != "boom" || err.Error() != "stage guarded panicked: boom" {
		t.Errorf("recovered %+v (%q)", pe, err)
	}
	if !strings.Contains(string(pe.Stack), "TestRecoverOnWorkerGoroutine") {
		t.Errorf("stack does not name the panicking goroutine:\n%s", pe.Stack)
	}
}

func TestRecoverWithoutPanicKeepsError(t *testing.T) {
	sentinel := errors.New("kept")
	f := func() (err error) {
		defer Recover(&err, "unused")
		return sentinel
	}
	if err := f(); err != sentinel {
		t.Errorf("err = %v, want the function's own error", err)
	}
}

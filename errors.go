package revalidate

import (
	"fmt"
	"runtime/debug"

	"repro/internal/stream"
)

// Limits bounds the resources one streaming validation may consume; the
// zero value is unlimited. See the field docs in internal/stream.
type Limits = stream.Limits

// LimitError reports a document that exceeded a configured resource limit
// (depth or element count). Retrieve it with errors.As to distinguish
// resource-governance rejections from ordinary invalid-document verdicts.
type LimitError = stream.LimitError

// PanicError is the verdict of a batch slot whose validation panicked: the
// batch APIs contain a panicking worker to its own document (recording the
// recovered value and stack) instead of crashing the process, so one
// poisoned input — or one engine bug it tickles — cannot take down a
// daemon fanning thousands of sibling documents over the same pool.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("validation panic: %v", e.Value)
}

// guardValidate runs one document's validation under a panic guard,
// converting a panic into a *PanicError verdict.
func guardValidate(body func() (Stats, error)) (st Stats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return body()
}

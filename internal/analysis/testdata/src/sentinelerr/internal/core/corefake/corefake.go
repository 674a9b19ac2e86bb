// Package corefake mirrors a test double under a scope path: the server
// does not import it, so its sentinel cannot reach StatusFor and needs no
// mapping.
package corefake

import "errors"

// ErrInjected is returned only to tests.
var ErrInjected = errors.New("corefake: injected failure")

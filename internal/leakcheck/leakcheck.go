// Package leakcheck is the tests' goroutine-leak check: count the
// goroutines, run the code under test, and fail unless the count settles
// back to where it was. Goroutines wind down asynchronously (a closed
// connection's read loop, a pool worker parking), so the check polls for
// a few seconds before it fails, and a failure dumps every stack.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Snapshot records the goroutine count now and returns a check that fails
// t unless the count settles back to it. Anything meant to outlive the
// code under test (a process-wide pool) must be started before Snapshot.
func Snapshot(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if err := settle(before); err != nil {
			t.Fatal(err)
		}
	}
}

// Main runs a package's tests and then fails the test binary unless the
// goroutine count settles back to what it was before the first test.
// Call it from TestMain.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settle(before); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck: goroutines outlived the tests:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// settle waits up to 5 s for the goroutine count to fall to before.
func settle(before int) error {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			return fmt.Errorf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
	return nil
}

// Package leakcheck is a test binary's goroutine-leak guard: a TestMain that
// hands over to Main fails the run when a goroutine of this module, started
// during the tests, is still alive once they are over — a reader, writer,
// persister or relay that some Close did not stop.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// patience is how long Main waits for goroutines that are on their way out.
const patience = 2 * time.Second

// Main runs the tests. If they pass, it waits up to patience for every
// goroutine that was not alive before them and whose stack names an
// armus/internal/ function to exit, and fails the binary with the stacks of
// those that do not. A goroutine whose stack contains one of allow is let
// be.
func Main(m *testing.M, allow ...string) {
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[id(g)] = true
	}
	code := m.Run()
	var left []string
	for deadline := time.Now().Add(patience); code == 0; time.Sleep(10 * time.Millisecond) {
		left = left[:0]
		for _, g := range goroutines() {
			if !before[id(g)] && strings.Contains(g, "armus/internal/") && !allowed(g, allow) {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests by %v:\n\n%s\n",
			len(left), patience, strings.Join(left, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// goroutines returns the stack of every goroutine, one per element, each
// opening with its "goroutine N [state]:" line.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// id is a stack's "goroutine N".
func id(stack string) string {
	f := strings.Fields(stack)
	if len(f) < 2 {
		return stack
	}
	return f[0] + " " + f[1]
}

func allowed(stack string, allow []string) bool {
	for _, a := range allow {
		if strings.Contains(stack, a) {
			return true
		}
	}
	return false
}

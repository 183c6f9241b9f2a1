package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
)

// stuckReport names, for every caller goroutine still inside an
// operation and every server worker inside a store call, the innermost
// program function it is in and the lock whose Execute it is running,
// read from the goroutine stacks.
func stuckReport(rt *core.Runtime) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return stuckFrames(string(buf), lockNames(rt))
}

// lockNames maps each lock's address, as stack traces print a receiver,
// to its name.
func lockNames(rt *core.Runtime) map[string]string {
	m := map[string]string{}
	for _, l := range rt.Locks() {
		m[fmt.Sprintf("%p", l)] = l.Name()
	}
	return m
}

const executeFrame = "repro/internal/core.(*Lock).Execute("

// stuckFrames parses a runtime.Stack dump of all goroutines.
func stuckFrames(dump string, locks map[string]string) []string {
	var out []string
	for _, g := range strings.Split(dump, "\n\n") {
		inStore := strings.Contains(g, "(*Server).serveConn") && strings.Contains(g, executeFrame)
		if !strings.Contains(g, ".(*caller).loop(") && !inStore {
			continue
		}
		where, lock := "", "?"
		for _, line := range strings.Split(g, "\n") {
			if where == "" && strings.HasPrefix(line, "repro/internal/") {
				where = strings.TrimPrefix(line[:strings.LastIndex(line, "(")], "repro/internal/")
			}
			if lock == "?" && strings.HasPrefix(line, executeFrame) {
				addr, _, _ := strings.Cut(strings.TrimPrefix(line, executeFrame), ",")
				if name, ok := locks[strings.TrimSuffix(addr, ")")]; ok {
					lock = name
				}
			}
		}
		if where == "" {
			where = "outside the program (benchmark or I/O)"
		}
		out = append(out, fmt.Sprintf("lock %s, in %s", lock, where))
	}
	return out
}

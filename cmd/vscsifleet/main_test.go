package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestListenOnATakenPortFails holds a port, then starts an agent and a sim
// that are told to serve on it: each must fail with an error naming the
// address rather than report a stats surface that never exists.
func TestListenOnATakenPortFails(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	runs := map[string]func() error{
		"agent": func() error {
			return runAgent(addr, "h1", "", time.Second, "iometer-8k-rand", 1, 1, 50*time.Millisecond)
		},
		"sim": func() error {
			return runSim(addr, "", time.Second, 1, 1, 50*time.Millisecond, 1, 1, 1, 1, 1)
		},
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), addr) {
			t.Errorf("%s on a taken port %s: %v, want an error naming the address", name, addr, err)
		}
	}
}

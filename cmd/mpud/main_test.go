package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestFlags pins the command line: the eleven flags, and that the deleted
// parking-lot bound and preemption opt-out are refused by the parser rather
// than ignored.
func TestFlags(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	want := "-addr -deadline -max-elements -max-sessions -node-id -pipeline-smoke -pools -pprof -queue -quiet -smoke"
	if strings.Join(got, " ") != want {
		t.Errorf("flags = %v, want %s", got, want)
	}

	for _, gone := range [][]string{{"-max-parked", "8"}, {"-nopreempt"}} {
		err := run(append(gone, "-smoke"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want a flag error", gone[0], err)
		}
	}
}

// lockedBuffer is a bytes.Buffer safe for the self-test goroutine and run's
// own goroutine to write at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSmoke runs both self-tests as CI does, through the SIGTERM drain.
func TestSmoke(t *testing.T) {
	for _, mode := range []string{"smoke", "pipeline-smoke"} {
		var out lockedBuffer
		if err := run([]string{"-" + mode, "-quiet"}, &out); err != nil {
			t.Fatalf("-%s: %v\n%s", mode, err, out.String())
		}
		for _, line := range []string{"mpud: " + mode + " ok\n", "mpud: terminated: draining\n", "mpud: drained\n"} {
			if !strings.Contains(out.String(), line) {
				t.Errorf("-%s: output lacks %q:\n%s", mode, line, out.String())
			}
		}
	}
}

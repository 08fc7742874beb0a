package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI builds the command once and drives it as a user would.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building figures: %v\n%s", err, out)
	}

	// Bad input is rejected before any experiment runs: nothing on stdout,
	// no "[fig09 done ...]" on stderr, and no profile left behind.
	prof := filepath.Join(dir, "cpu.prof")
	for _, args := range [][]string{
		{"-fig", "fig09", "-format", "xml"},
		{"-fig", "fig09,bogus"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-cpuprofile", prof)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("%v: want a non-zero exit, got %v", args, err)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "[fig09 done") {
			t.Errorf("%v: ran an experiment before rejecting the input\nstdout: %s\nstderr: %s", args, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(prof); err == nil {
			t.Errorf("%v: left a profile behind", args)
		}
	}
}

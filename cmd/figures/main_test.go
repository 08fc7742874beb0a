package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dibs/internal/experiments"
)

// TestCLI builds the command once and drives it as a user would.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building figures: %v\n%s", err, out)
	}

	// Bad input is rejected with exit status 2 and the offending flag named,
	// before any experiment runs: nothing on stdout, no "[... done ...]" on
	// stderr, and no profile left behind. A scale or seed the run would not
	// use is bad input too, since the header would print it.
	prof := filepath.Join(dir, "cpu.prof")
	for _, row := range []struct {
		args []string
		flag string
	}{
		{[]string{"-fig", "fig09", "-format", "xml"}, "-format"},
		{[]string{"-fig", "fig09,bogus"}, "-fig"},
		{[]string{"-fig", "delack", "-scale", "0"}, "-scale"},
		{[]string{"-fig", "delack", "-scale", "NaN"}, "-scale"},
		{[]string{"-fig", "delack", "-scale", "+Inf"}, "-scale"},
		{[]string{"-fig", "delack", "-seed", "0"}, "-seed"},
		{[]string{"-fig", "delack", "-scale", "-1", "-seed", "0"}, "-seed"},
	} {
		args := row.args
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-cpuprofile", prof)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: want exit status 2, got %v", args, err)
		}
		if !strings.Contains(stderr.String(), row.flag) {
			t.Errorf("%v: rejection does not name %s: %q", args, row.flag, stderr.String())
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), " done in ") {
			t.Errorf("%v: ran an experiment before rejecting the input\nstdout: %s\nstderr: %s", args, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(prof); err == nil {
			t.Errorf("%v: left a profile behind", args)
		}
	}
}

// TestREADMEFigIDsAreRegistered keeps the README's commands runnable: every
// experiment ID it passes to -fig must be one the registry knows.
func TestREADMEFigIDsAreRegistered(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	uses := regexp.MustCompile(`-fig ([\w,]+)`).FindAllStringSubmatch(string(readme), -1)
	if len(uses) == 0 {
		t.Fatal("README.md cites no -fig command")
	}
	for _, use := range uses {
		for _, id := range strings.Split(use[1], ",") {
			if _, ok := experiments.ByID(id); !ok {
				t.Errorf("README.md: %q names unregistered experiment %q", use[0], id)
			}
		}
	}
}

package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDibslint builds the command and returns a runner that drives it as
// a script would, from the module root, reporting exit status, stdout and
// stderr.
func buildDibslint(t *testing.T) func(args ...string) (int, string, string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dibslint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dibslint: %v\n%s", err, out)
	}
	return func(args ...string) (int, string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Dir = filepath.Join("..", "..") // patterns resolve from the module root
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("running dibslint %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
	}
}

// TestDisableValidatesRuleIDs: -disable of an ID that -rules does not list
// (a typo, or a rule since retired) is a usage error naming the ID, not a
// silent no-op.
func TestDisableValidatesRuleIDs(t *testing.T) {
	run := buildDibslint(t)
	for _, id := range []string{"no-such-rule", "float-equal"} {
		code, stdout, stderr := run("-disable=float-eq,"+id, "./internal/rng")
		if code != 2 || stdout != "" {
			t.Errorf("-disable=%s: exit %d, stdout %q; want exit 2 and no findings", id, code, stdout)
		}
		if !strings.Contains(stderr, `"`+id+`"`) || !strings.Contains(stderr, "-rules") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-disable=%s: stderr should be one line naming the ID and pointing at -rules:\n%s", id, stderr)
		}
	}

	if code, stdout, stderr := run("-disable=float-eq, lint-staleignore", "./internal/stats"); code != 0 || stdout != "" {
		t.Errorf("-disable of known rules: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestRemovedSARIFOutput pins the removal of -sarif: -json is the one
// machine-readable format, and the old flag is a usage error.
func TestRemovedSARIFOutput(t *testing.T) {
	run := buildDibslint(t)
	code, stdout, stderr := run("-sarif", "./internal/rng")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -sarif") {
		t.Errorf("-sarif: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

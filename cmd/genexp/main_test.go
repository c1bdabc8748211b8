package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsAreChecked builds genexp and runs it: a flag value no
// experiment can mean exits 2 with a message naming the flag, before any
// experiment prints a line.
func TestFlagsAreChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the genexp binary")
	}
	bin := filepath.Join(t.TempDir(), "genexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (code int, stdout, stderr string) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), o.String(), e.String()
		}
		if err != nil {
			t.Fatalf("genexp %v: %v", args, err)
		}
		return 0, o.String(), e.String()
	}

	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-scale", "+Inf"}, "-scale"},
		{[]string{"-format", "json"}, "-format"},
		{[]string{"-workers", "-2"}, "-workers"},
	} {
		code, stdout, stderr := run(append([]string{"-exp", "table2"}, c.args...)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.flag) {
			t.Errorf("genexp %v: exit %d, stdout %q, stderr %q; want exit 2, no output and a message naming %s",
				c.args, code, stdout, stderr, c.flag)
		}
	}
	if code, stdout, stderr := run("-exp", "fig10", "-scale", "0.05"); code != 1 || stdout != "" ||
		!strings.Contains(stderr, `unknown experiment "fig10"`) {
		t.Errorf("genexp -exp fig10: exit %d, stdout %q, stderr %q; want exit 1 and no output", code, stdout, stderr)
	}
	code, stdout, stderr := run("-exp", "table2", "-scale", "0.05", "-format", "csv")
	if code != 0 || !strings.HasPrefix(stdout, "# genexp scale=0.05 seed=20130826 workers=8\n# Table 2 — ") {
		t.Errorf("genexp -exp table2 -scale 0.05 -format csv: exit %d, stderr %q, stdout\n%s", code, stderr, stdout)
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain makes the test binary the dataset command when DATASET_RUN_MAIN
// is set, so a test can run the program as a subprocess and see its exit
// code and files.
func TestMain(m *testing.M) {
	if os.Getenv("DATASET_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDataset runs the program with args and returns its exit code and
// stderr.
func runDataset(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DATASET_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestBadArgumentKeepsOutputFile runs the program with a bad -app or
// -device against an existing -o file: it must exit 1 and leave the file as
// it was.
func TestBadArgumentKeepsOutputFile(t *testing.T) {
	for _, args := range [][]string{{"-app", "bogus"}, {"-device", "bogus"}} {
		path := filepath.Join(t.TempDir(), "keep.csv")
		const before = "input,freq_mhz\n"
		if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr := runDataset(t, append(args, "-quick", "-o", path)...)
		if code != 1 || !strings.Contains(stderr, `unknown `+strings.TrimPrefix(args[0], "-")+` "bogus"`) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming the bad value", args, code, stderr)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != before {
			t.Errorf("%v: output file now holds %q (err %v), want it unchanged", args, got, err)
		}
	}
}

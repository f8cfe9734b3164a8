package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("-list exit = %d", code)
	}
}

func TestRunExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-experiment", "fig3", "-csv", dir}); code != 0 {
		t.Fatalf("fig3 exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}

func TestRunBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown experiment", []string{"-experiment", "nope"}},
		{"no args", []string{}},
		{"bad flag", []string{"-bogusflag"}},
		{"quick mode is gone", []string{"-experiment", "fig2", "-quick"}},
		{"seeds with all", []string{"-all", "-seeds", "2"}},
		{"seeds with csv", []string{"-experiment", "fig2", "-seeds", "2", "-csv", t.TempDir()}},
		{"seeds below one", []string{"-experiment", "fig2", "-seeds", "0"}},
	} {
		if code := run(tc.args); code != 2 {
			t.Errorf("%s: exit = %d, want 2", tc.name, code)
		}
	}
}

func TestRunMultiSeed(t *testing.T) {
	if code := run([]string{"-experiment", "fig2", "-seeds", "2"}); code != 0 {
		t.Errorf("-seeds exit = %d", code)
	}
}

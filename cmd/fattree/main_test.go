package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netupdate/internal/experiments"
	"netupdate/internal/snapshot"
)

// TestRunInspectsTheGenesis: fattree loads the world the figures run on
// (same k, target and seed, same background) and writes it as a
// decodable snapshot.
func TestRunInspectsTheGenesis(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	var out bytes.Buffer
	if code := run([]string{"-k", "4", "-util", "0.5", "-seed", "1", "-snapshot", path}, &out); code != 0 {
		t.Fatalf("run exit = %d\n%s", code, out.String())
	}
	env, err := experiments.NewEnv(experiments.Setup{K: 4, Utilization: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("background: %d flows placed, ", len(env.Background))
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := snapshot.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Flows) != len(env.Background) {
		t.Errorf("snapshot holds %d flows, want %d", len(snap.Flows), len(env.Background))
	}
}

func TestRunRejectsUnknownTrace(t *testing.T) {
	if code := run([]string{"-trace", "bogus"}, &bytes.Buffer{}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

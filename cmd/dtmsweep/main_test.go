package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain re-execs the test binary as dtmsweep when the marker is
// set, so smoke tests can drive real flag parsing (and its exit codes)
// without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("DTMSWEEP_SMOKE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-invokes this test binary as the command with the given
// arguments, returning its exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DTMSWEEP_SMOKE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

func TestHelpExitsZero(t *testing.T) {
	code, out := runMain(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d:\n%s", code, out)
	}
	for _, flag := range []string{"-figure", "-remote", "-canonical", "-shard", "-resume", "-policies"} {
		if !strings.Contains(out, flag) {
			t.Fatalf("usage text missing %s:\n%s", flag, out)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, out := runMain(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("bad flag exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "Usage") {
		t.Fatalf("bad flag printed no usage:\n%s", out)
	}
}

// runSweep re-invokes this test binary as the command, which must exit
// 0, and returns its stdout and stderr apart.
func runSweep(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DTMSWEEP_SMOKE_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestCanonicalResumeAndShards runs one small canonical sweep three
// ways. Resumed from a checkpoint holding some of its records, it
// prints exactly the other records, in canonical order. Split into two
// shards, the shards together hold the records of the uninterrupted
// run, each shard in canonical order. The stderr counts follow the job
// lists.
func TestCanonicalResumeAndShards(t *testing.T) {
	args := []string{"-out", "jsonl", "-canonical", "-exps", "1,2", "-policies", "Default,CGate,DVFS_TT",
		"-benchmarks", "Web-med", "-duration", "2", "-workers", "2"}
	full, _ := runSweep(t, args...)
	recs := strings.SplitAfter(full, "\n")
	recs = recs[:len(recs)-1]
	if len(recs) != 6 {
		t.Fatalf("uninterrupted sweep printed %d records, want 6:\n%s", len(recs), full)
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(ck, []byte(recs[0]+recs[3]+recs[4]), 0o644); err != nil {
		t.Fatal(err)
	}
	rest, stderr := runSweep(t, append(args, "-resume", ck)...)
	if want := recs[1] + recs[2] + recs[5]; rest != want {
		t.Errorf("resumed sweep printed\n%s\nwant the records the checkpoint lacks, in canonical order:\n%s", rest, want)
	}
	for _, line := range []string{"resuming: 3 completed runs in " + ck + "\n", "6 jobs in sweep, 6 in this shard, 3 to run\n"} {
		if !strings.Contains(stderr, line) {
			t.Errorf("resumed sweep's stderr lacks %q:\n%s", line, stderr)
		}
	}

	// A record's place in the uninterrupted run orders the shards'
	// records; a record that run lacks sorts first and fails the merge.
	byPlace := func(a, b string) int { return slices.Index(recs, a) - slices.Index(recs, b) }
	var merged []string
	for _, shard := range []string{"0/2", "1/2"} {
		out, _ := runSweep(t, append(args, "-shard", shard)...)
		got := strings.SplitAfter(out, "\n")
		got = got[:len(got)-1]
		if len(got) == 0 || len(got) == len(recs) {
			t.Errorf("shard %s holds %d of %d records; the test needs a real split", shard, len(got), len(recs))
		}
		if !slices.IsSortedFunc(got, byPlace) {
			t.Errorf("shard %s is not in canonical order:\n%s", shard, out)
		}
		merged = append(merged, got...)
	}
	slices.SortFunc(merged, byPlace)
	if !slices.Equal(merged, recs) {
		t.Errorf("shards 0/2 and 1/2 hold\n%s\nwant the uninterrupted run's records:\n%s", strings.Join(merged, ""), full)
	}
}

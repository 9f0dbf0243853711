package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestLiveTrioSmoke builds planetd, runs a short live-trio window and
// requires every oracle to hold, no request to fail and every end-to-end
// metric to be measured.
func TestLiveTrioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three planetd processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "planetd")
	if out, err := exec.Command("go", "build", "-o", bin, "planet/cmd/planetd").CombinedOutput(); err != nil {
		t.Fatalf("build planetd: %v\n%s", err, out)
	}
	out, err := runLive(runConfig{seed: 1, seconds: 8 * time.Second, planetd: bin, workdir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if out.oracleErr != nil {
		t.Fatalf("oracle: %v", out.oracleErr)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
	}
	for _, d := range endToEnd {
		if !(out.values[d.name] > 0) {
			t.Errorf("%s = %v, want > 0", d.name, out.values[d.name])
		}
	}
}

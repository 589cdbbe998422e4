package main

import "testing"

func TestSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := selftest(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

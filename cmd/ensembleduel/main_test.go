package main

import (
	"strings"
	"testing"

	"ensembleio"
	"ensembleio/internal/cascache"
)

// poisonSpec passes validation but panics inside every rank body: it
// writes through a descriptor it has already closed.
const poisonSpec = `{
  "name": "write-after-close",
  "tasks": 4,
  "path": "/scratch/poison.dat",
  "phases": [
    {"ops": [{"op": "open"}, {"op": "close"}, {"op": "write", "bytes": 1000000}]}
  ]
}`

// TestPanickingTenantFailsSessionUncached: a tenant whose rank bodies
// panic fails the whole duel with one error carrying the panic
// message, and nothing of the session reaches the cache.
func TestPanickingTenantFailsSessionUncached(t *testing.T) {
	poison, err := ensembleio.ParseWorkload(strings.NewReader(poisonSpec))
	if err != nil {
		t.Fatal(err)
	}
	tenants := []ensembleio.Tenant{
		{Name: "good", Spec: ensembleio.GenerateWorkload(1)},
		{Name: "poison", Spec: poison, StartSec: 1},
	}
	cfg := ensembleio.TenancyConfig{Machine: ensembleio.Franklin(), Seed: 1, Telemetry: true}
	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arts, err := session(cfg, tenants, 1, store, false)
	if err == nil || !strings.Contains(err.Error(), "posixio: bad file descriptor") {
		t.Fatalf("session: err %v, want the rank body's panic message", err)
	}
	if strings.Contains(err.Error(), "\n") {
		t.Errorf("error spans several lines: %q", err)
	}
	if len(arts) != 0 {
		t.Errorf("failed session returned %d artifacts", len(arts))
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Errorf("failed session was published to the cache (%d puts)", st.Puts)
	}
}

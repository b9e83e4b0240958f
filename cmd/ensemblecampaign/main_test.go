package main

import (
	"testing"
	"time"

	"ensembleio"
)

// benchGrid builds the headline shape: n scenarios with ~50%
// duplicates (each unique scenario submitted twice).
func benchGrid(n int) []ensembleio.CampaignEntry {
	entries := make([]ensembleio.CampaignEntry, 0, n)
	for i := 0; i < n; i++ {
		u := int64(i / 2) // i and i+1 share a scenario
		entries = append(entries, ensembleio.CampaignEntry{
			Name:     "grid",
			Spec:     ensembleio.GenerateWorkload(u % 25),
			Platform: ensembleio.Franklin(),
			Seed:     u / 25,
		})
	}
	return entries
}

// The acceptance gate in wall-clock form: a warm 100-scenario campaign
// with ~50% duplicates must beat the cold one by at least 2x (in
// practice it is orders of magnitude faster — the warm pass computes
// nothing). The checked-in BenchmarkCacheCampaign* numbers gate the
// same ratio in CI via bench-guard.
func TestWarmCampaignAtLeastTwiceAsFast(t *testing.T) {
	entries := benchGrid(100)
	store, err := ensembleio.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	coldStart := time.Now()
	cold, coldStats, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(coldStart)
	if coldStats.Misses != coldStats.Unique || coldStats.Hits != 0 {
		t.Fatalf("cold stats %+v", coldStats)
	}

	warmStart := time.Now()
	warm, warmStats, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	warmDur := time.Since(warmStart)
	if warmStats.Hits != warmStats.Unique || warmStats.Misses != 0 {
		t.Fatalf("warm stats %+v", warmStats)
	}

	for i := range entries {
		if err := ensembleio.DiffCacheArtifacts(cold[i].Artifacts, warm[i].Artifacts); err != nil {
			t.Fatalf("entry %d: warm bytes differ from cold: %v", i, err)
		}
	}
	if warmDur*2 > coldDur {
		t.Fatalf("warm campaign %v vs cold %v: want >=2x speedup", warmDur, coldDur)
	}
	t.Logf("cold %v, warm %v (%.0fx)", coldDur, warmDur, float64(coldDur)/float64(warmDur))
}

package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	root := span{name: "bench", start: 0, end: 100}
	spans := []span{
		{name: "client", start: 10, end: 90},
		{name: "/v1/evaluate", start: 20, end: 80},
		{name: "flight", start: 30, end: 70},
		// A boundary search and the join it nests arrive as siblings.
		{name: "engine.boundary", start: 35, end: 65},
		{name: "engine.mitm_probe", start: 40, end: 50},
		// Unknown spans leave their time with the enclosing layer.
		{name: "corpus.warmstart", start: 72, end: 78},
		// Spans are clipped to the root.
		{name: "engine.w2_count", start: 95, end: 120},
	}
	want := map[string]int64{
		"bench":             15,
		"client":            20,
		"http":              20,
		"flight":            10,
		"engine.boundary":   20,
		"engine.mitm_probe": 10,
		"engine.count":      5,
	}
	if got := selfTimes(root, spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestEngineProbes(t *testing.T) {
	const us = 1000
	spans := []span{
		// Backdating can start a nested span a hair before its parent.
		{name: "engine.mitm_store", start: -10, end: 20 * us, probes: 20},
		{name: "engine.boundary", start: 0, end: 100 * us, probes: 50},
		{name: "engine.mitm_probe", start: 20 * us, end: 90 * us, probes: 30},
		{name: "engine.w4_scan", start: 200 * us, end: 300 * us, probes: 7},
		{name: "flight", start: 0, end: 400 * us, probes: 1000},
	}
	if got := engineProbes(spans); got != 57 {
		t.Errorf("engineProbes = %d, want 57", got)
	}
}

func TestOracles(t *testing.T) {
	// The reciprocal of a reciprocal is the polynomial itself, and
	// 0x80000001 (x^32 + x + 1) has reciprocal x^32 + x^31 + 1.
	if got := reciprocal(0x80000001); got != 0xC0000000 {
		t.Errorf("reciprocal(0x80000001) = %#x", got)
	}
	for _, c := range table1 {
		if reciprocal(reciprocal(c.koopman)) != c.koopman {
			t.Errorf("reciprocal is not an involution on %#x", c.koopman)
		}
	}
	// The generator is itself an undetectable pattern; one bit short of
	// it is not.
	if !undetectable(0x80000001, []int{32, 1, 0}) || undetectable(0x80000001, []int{32, 1}) {
		t.Error("undetectable disagrees with the generator x^32 + x + 1")
	}
	if got, ok := table1[0].maxLenAtHD(6, 12112); !ok || got != 268 {
		t.Errorf("IEEE 802.3 HD>=6 up to %d (%v), want 268", got, ok)
	}
}

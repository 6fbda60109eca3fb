package main

import (
	"fmt"

	"mvpar/internal/bench"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlMissSmall = "miss-small"
	wlMissDeep  = "miss-deep"
	wlHitMix    = "hit-mix"
)

// fastModel is the registry name of the int8 view the server is started
// with (-models fast=@int8); the empty model name selects the default
// float64 model.
const fastModel = "fast"

// Request is one generated classify request. The sequence a workload
// produces is a pure function of (workload, seed, index).
type Request struct {
	Name   string
	Source string
	Model  string // "" = default float64 model, fastModel = int8
	Hot    bool   // hit-mix: a resubmission of one of the hot programs
}

// Tier reports the precision tier the request's model answers at.
func (r Request) Tier() string {
	if r.Model == fastModel {
		return "int8"
	}
	return "float64"
}

// Generator produces a workload's request sequence.
type Generator struct {
	workload string
	seed     int64
	hot      []Request // hit-mix only
}

// hotPrograms is how many distinct programs hit-mix resubmits.
const hotPrograms = 32

// hotPercent is hit-mix's share of resubmissions, in percent.
const hotPercent = 95

// NewGenerator returns the generator of a workload, or an error naming
// the valid workloads.
func NewGenerator(workload string, seed int64) (*Generator, error) {
	g := &Generator{workload: workload, seed: seed}
	switch workload {
	case wlMissSmall, wlMissDeep:
	case wlHitMix:
		// Hot program k has 4 + k%9 loops, so every seed's hot set has
		// the same size mix and only the programs themselves vary.
		next := int64(1 << 27)
		for k := 0; k < hotPrograms; k++ {
			var app bench.App
			for {
				app = bench.RandomProgram(programSeed(seed, next))
				next++
				if app.TargetLoops == 4+k%9 {
					break
				}
			}
			g.hot = append(g.hot, Request{
				Name:   fmt.Sprintf("hot-%d-%d", seed, k),
				Source: app.Source,
				Model:  modelFor(int64(k)),
				Hot:    true,
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %s, %s, %s)", workload, wlMissSmall, wlMissDeep, wlHitMix)
	}
	return g, nil
}

// programSeed derives the bench.RandomProgram seed of sequence index i.
// Seeds stay below 2^32 and indices below 2^27 (hot programs draw from
// 2^27 up), so distinct (seed, index) pairs never share a program seed,
// and so never a program name.
func programSeed(seed, i int64) int64 { return seed<<28 | i }

// maxSeed bounds the workload seed (see programSeed).
const maxSeed = 1 << 32

// modelFor splits requests evenly between the two served models.
func modelFor(i int64) string {
	if i%2 == 1 {
		return fastModel
	}
	return ""
}

// Request returns the i-th request of the sequence.
func (g *Generator) Request(i int64) Request {
	switch g.workload {
	case wlMissDeep:
		return deepKernel(g.seed, i)
	case wlHitMix:
		r := mix64(uint64(g.seed)*0x9e3779b97f4a7c15 ^ uint64(i))
		if r%100 < hotPercent {
			return g.hot[(r/100)%hotPrograms]
		}
		fallthrough
	default:
		app := bench.RandomProgram(programSeed(g.seed, i))
		return Request{Name: app.Name, Source: app.Source, Model: modelFor(i)}
	}
}

// mix64 is the splitmix64 finalizer: a cheap, well-spread hash of the
// sequence index.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

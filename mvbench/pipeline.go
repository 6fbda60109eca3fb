package main

import (
	"context"
	"fmt"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/walks"
)

// quickOptions mirrors `mvpar serve -quick`'s training configuration, so
// the in-process model is the one the server trains. checkFingerprints
// proves it: the server reports each model's fingerprint at /v1/models.
func quickOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Data = dataset.Config{
		Variants:   2,
		WalkParams: walks.Params{Length: 4, Gamma: 12},
		WalkLen:    4,
		EmbedCfg:   inst2vec.DefaultConfig,
		Seed:       1,
		LabelNoise: 0.05,
	}
	opts.Train = gnn.TrainConfig{Epochs: 10, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: 1}
	return opts
}

// models is the in-process twin of the served registry: the trained
// pipeline and one classifier per served model name.
type models struct {
	pl  *core.Pipeline
	cls map[string]*core.Classifier // "" = default float64, fastModel = int8
}

// trainModels trains the quick pipeline on the built-in corpus and takes
// the two classifier handles the server serves.
func trainModels(ctx context.Context) (*models, error) {
	pl := core.NewPipeline(quickOptions())
	if _, err := pl.TrainOnContext(ctx, bench.Corpus()); err != nil {
		return nil, fmt.Errorf("training the quick model: %w", err)
	}
	m := &models{pl: pl, cls: map[string]*core.Classifier{}}
	for name, tier := range map[string]string{"": core.PrecisionFloat64, fastModel: core.PrecisionInt8} {
		c, err := pl.ClassifierPrecision(tier)
		if err != nil {
			return nil, err
		}
		m.cls[name] = c
	}
	return m, nil
}

// encodeConfig is the single-program encode configuration a Classifier
// pins (see core.Pipeline.ClassifierPrecision); the traced replay calls
// dataset.Build with it.
func (m *models) encodeConfig() dataset.Config {
	cfg := m.pl.Opts.Data
	cfg.Variants = 1
	cfg.Embedding = m.pl.Dataset.Embedding
	cfg.Space = m.pl.Dataset.Space
	cfg.Strict = true
	cfg.Ctx = nil
	return cfg
}

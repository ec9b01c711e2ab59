package monocle

// Synthetic ACL datasets: the Stanford-backbone-like rule-set family of
// Table 2, used by the benchmark rig and the fleet-sweep example to build
// realistic flow tables.

import "monocle/internal/dataset"

// DatasetProfile parameterizes one synthetic ACL rule-set family.
type DatasetProfile = dataset.Profile

// StanfordDataset is the Stanford-backbone-like ACL profile (Table 2).
func StanfordDataset() DatasetProfile { return dataset.Stanford() }

// GenerateDataset builds the profile's flow table and returns it with its
// rules (deterministic for a given profile).
func GenerateDataset(p DatasetProfile) (*Table, []*Rule) { return dataset.Generate(p) }

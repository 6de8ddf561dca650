package main

import (
	"reflect"
	"testing"

	"sbr6/internal/boot"
	"sbr6/internal/scalebench"
	"sbr6/internal/scenario"
)

// TestFormationConfigMirrorsScalebench pins formationConfig, which the
// sharded workload builds, to the network scalebench.BuildFormation
// builds for the default engine.
func TestFormationConfigMirrorsScalebench(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		want := scalebench.BuildFormation(60, boot.PerCell, seed).Cfg
		sc, err := scenario.Build(formationConfig(60, seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc.Cfg, want) {
			t.Errorf("seed %d: formationConfig builds\n%+v\nscalebench builds\n%+v", seed, sc.Cfg, want)
		}
	}
}

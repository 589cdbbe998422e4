package main

import (
	"fmt"
	"math/rand"

	"ohminer/internal/intset"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// kernelByName resolves the -kernel flag to a set-kernel family.
func kernelByName(name string) (intset.Kernel, error) {
	switch name {
	case "adaptive":
		return intset.Adaptive, nil
	case "scalar":
		return intset.Scalar, nil
	}
	return intset.Kernel{}, fmt.Errorf("unknown -kernel %q (have adaptive, scalar)", name)
}

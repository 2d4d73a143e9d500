package noblock_test

import (
	"testing"

	"lhws/internal/analysis/analysistest"
	"lhws/internal/analysis/noblock"
)

func TestNoBlock(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, noblock.Analyzer, "lhws/a", "lhws/b", "lhws/tasknet", "lhws/internal/runtime")
}

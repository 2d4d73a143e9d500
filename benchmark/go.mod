module lhws/benchmark

go 1.24

// The benchmark is its own module so it carries its own build file, but
// it measures the repo it sits in: the module path is under lhws/, which
// lets it import lhws/internal/..., and the replace points at the parent
// directory. Copied anywhere else it does not build.
require lhws v0.0.0

replace lhws => ../

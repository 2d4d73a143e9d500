//go:build !race

package runtime

// raceDetectorEnabled is false in normal builds; see race_test.go.
const raceDetectorEnabled = false

// Package timerwheel is a fixture stand-in for lhws/internal/timerwheel.
package timerwheel

import "time"

type Timer struct{}

type Wheel struct{}

// AfterFunc registers f to run on the wheel goroutine.
func (w *Wheel) AfterFunc(d time.Duration, f func(any), arg any) *Timer { return nil }

// AfterFuncT registers the Timer-carrying callback variant.
func (w *Wheel) AfterFuncT(d time.Duration, f func(*Timer, any), arg any) *Timer { return nil }

// AfterFuncInto registers f on caller-owned Timer storage t.
func (w *Wheel) AfterFuncInto(t *Timer, d time.Duration, f func(any), arg any) {}

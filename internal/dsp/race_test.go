//go:build race

package dsp

func init() { growAllocs = 2 }

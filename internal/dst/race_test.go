//go:build race

package dst

func init() { raceEnabled = true }

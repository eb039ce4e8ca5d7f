package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 {
		t.Fatal("OnlyTested")
	}
}

func TestGauge(t *testing.T) {
	if (Gauge{}).Read() != 3 || Total(Gauge{}) != 3 {
		t.Fatal("Gauge")
	}
}

func TestTwice(t *testing.T) {
	Twice(func() { Reset() })
}

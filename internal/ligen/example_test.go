package ligen_test

import (
	"fmt"
	"log"

	"dsenergy/internal/ligen"
	"dsenergy/internal/xrand"
)

// ExampleScreen runs a tiny CPU-reference virtual-screening campaign.
func ExampleScreen() {
	pocket, err := ligen.GenPocket(xrand.New(7), 16, 10)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := ligen.GenLibrary(xrand.New(11), 4, 20, 3)
	if err != nil {
		log.Fatal(err)
	}
	ranking, err := ligen.Screen(lib, pocket, ligen.TestParams(), 2, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("screened %d ligands; best candidate %s\n", len(ranking), ranking[0].Name)
	fmt.Printf("ranking is descending: %v\n", ranking[0].Score >= ranking[len(ranking)-1].Score)
	// Output:
	// screened 4 ligands; best candidate lig-000000
	// ranking is descending: true
}

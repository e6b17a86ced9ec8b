//go:build ignore

// Command gen writes stages_clean.go, the clean twin of the pipeline's
// stage processes (see package twingen). Run it with go generate.
package main

import (
	"log"
	"os"

	"repro/internal/leon3/twingen"
)

func main() {
	src, err := twingen.Generate(".")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(twingen.Output, src, 0o644); err != nil {
		log.Fatal(err)
	}
}

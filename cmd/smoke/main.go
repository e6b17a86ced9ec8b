// Command smoke holds the repository's two hermetic end-to-end smoke
// tests, the checks that cross a process boundary, one per subcommand:
// `go run ./cmd/smoke serve|crash` (= `make serve-smoke` and
// `make crash-smoke`). Each builds the binaries it drives from this
// checkout and needs only the go toolchain and a TCP loopback; no curl or
// jq. serve.go and crash.go say what each asserts; harness.go is what
// they share.
package main

import (
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		log.Fatal("usage: smoke serve|crash [-seed N]")
	}
	name := os.Args[1] + "smoke"
	log.SetPrefix(name + ": ")
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve()
	case "crash":
		if err = crash(os.Args[2:]); err != nil {
			logger.Error("smoke failed", "error", err)
			os.Exit(1)
		}
	default:
		log.Fatalf("unknown smoke %q: want serve or crash", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(name + ": OK")
}

// Command smoke holds the repository's four hermetic end-to-end smoke
// tests, one per subcommand: `go run ./cmd/smoke serve|shard|crash|hybrid`
// (= `make serve-smoke` and so on). Each builds the binaries it drives
// from this checkout and needs only the go toolchain and a TCP loopback;
// no curl or jq. serve.go, shard.go, crash.go and hybrid.go say what each
// asserts; harness.go is what they share.
package main

import (
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		log.Fatal("usage: smoke serve|shard|crash|hybrid [-seed N]")
	}
	name := os.Args[1] + "smoke"
	log.SetPrefix(name + ": ")
	var err error
	ok := "OK"
	switch os.Args[1] {
	case "serve":
		err = serve()
	case "shard":
		err = shard()
	case "crash":
		if err = crash(os.Args[2:]); err != nil {
			logger.Error("smoke failed", "error", err)
			os.Exit(1)
		}
	case "hybrid":
		err, ok = hybrid(), "OK (routing contract, warm runners, full-audit collapse, shard invariance)"
	default:
		log.Fatalf("unknown smoke %q: want serve, shard, crash or hybrid", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(name + ": " + ok)
}

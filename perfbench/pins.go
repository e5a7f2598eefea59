package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// pinnedJSON holds the output digests of every unit a workload can run,
// regenerated only with -pin at a commit whose outputs are known good.
//
//go:embed pinned.json
var pinnedJSON []byte

func loadPins() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return p, nil
}

// digest reduces simulated outputs to a short hash. %+v prints every
// float in its shortest exact form, so two outputs hash alike only when
// they are bit-identical.
func digest(outputs ...any) string {
	h := sha256.New()
	for _, o := range outputs {
		fmt.Fprintf(h, "%+v\n", o)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

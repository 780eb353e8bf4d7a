package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coherence"
)

// FuzzConfigJSON drives the machine-configuration decoder — the one input
// users hand-edit — with arbitrary bytes. Properties: decoding never
// panics; any accepted config is a fixed point of Marshal→Unmarshal; and
// LoadConfig either errors or returns a config that passes Validate.
func FuzzConfigJSON(f *testing.F) {
	for _, cfg := range []Config{DefaultConfig(4, coherence.SwiftDir), DefaultScaledConfig(64, coherence.MESI)} {
		path := filepath.Join(f.TempDir(), "machine.json")
		if err := SaveConfig(path, cfg); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"protocol":"S-MESI","l1_arch":"PIPT","prefetch":"naive"}`))
	f.Add([]byte(`{"cores":3,"prefault":true}`))
	huge := DefaultConfig(4, coherence.SwiftDir)
	huge.L1.Ways, huge.L1.BlockSize = 1<<62, 4 // ways*block overflows int
	if data, err := json.Marshal(huge); err == nil {
		f.Add(data)
	}

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if err := json.Unmarshal(data, &c); err == nil {
			enc, err := json.Marshal(c)
			if err != nil {
				t.Fatalf("accepted config does not marshal: %v", err)
			}
			var back Config
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatalf("marshalled config rejected: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(back, c) {
				t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, c)
			}
			if enc2, _ := json.Marshal(back); !bytes.Equal(enc2, enc) {
				t.Fatalf("re-encoding differs:\n%s\n%s", enc2, enc)
			}
		}

		path := filepath.Join(dir, "machine.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if loaded, err := LoadConfig(path); err == nil {
			if verr := loaded.Validate(); verr != nil {
				t.Fatalf("LoadConfig returned an invalid config without error: %v", verr)
			}
		}
	})
}

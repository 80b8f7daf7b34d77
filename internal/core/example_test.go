package core_test

import (
	"bytes"
	"fmt"
	"strings"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/format"
)

// The paper's Figure 2 flow: initialise, compress a memory buffer,
// decompress it back.
func ExampleCompress() {
	payload := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200))

	container, err := core.Compress(payload, core.Params{})
	if err != nil {
		panic(err)
	}
	restored, err := core.Decompress(container, core.Params{})
	if err != nil {
		panic(err)
	}
	fmt.Println("round trip ok:", bytes.Equal(restored, payload))
	fmt.Println("compressed smaller:", len(container) < len(payload))
	// Output:
	// round trip ok: true
	// compressed smaller: true
}

// The engine is the paper's "version on the API call" (§V): name it, or
// pass codec.Auto to let a sample probe pick — V1 for highly
// compressible data, V2 otherwise, raw store for incompressible bytes.
// The container's codec byte records the choice.
func ExampleCompressCodec() {
	repetitive := bytes.Repeat([]byte("abcdefghijklmnopqrst"), 2000)
	for _, name := range []string{codec.Auto, "v2"} {
		container, _, err := core.CompressCodec(repetitive, name, core.Params{})
		if err != nil {
			panic(err)
		}
		h, _, err := format.ParseHeader(container)
		if err != nil {
			panic(err)
		}
		fmt.Println(name, "->", h.Codec)
	}
	// Output:
	// auto -> culzss-v1
	// v2 -> culzss-v2
}

// The streaming adapters wrap the buffer API for io pipelines.
func ExampleNewWriter() {
	var network bytes.Buffer

	w := core.NewWriterOptions(&network, core.Params{}, core.StreamOptions{Codec: "v2"})
	fmt.Fprint(w, strings.Repeat("sensor reading 42.0; ", 500))
	if err := w.Close(); err != nil {
		panic(err)
	}

	r, err := core.NewReader(&network, core.Params{})
	if err != nil {
		panic(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		panic(err)
	}
	fmt.Println("delivered bytes:", out.Len())
	// Output:
	// delivered bytes: 10500
}

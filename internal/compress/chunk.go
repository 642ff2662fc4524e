package compress

// Chunked decoding: the fused verification kernels consume reconstructed
// values chunk by chunk, straight off the compressed stream, so the full
// field is never materialized on that path. Codecs whose decode loop is
// naturally sequential (tsblob's XOR iterator, apax's block quantizer,
// fpzip's truncation paths) implement ChunkDecoder directly; deflate-bound
// codecs (nc, nclossless, grib2, isa) go through a pooled whole-field
// fallback whose buffer lives only for the duration of one call.

// DefaultChunkLen is the chunk length (in float32 values) used when the
// caller passes an empty chunk buffer to DecodeChunks. 4096 values = 16 KiB,
// comfortably inside L1/L2 while amortizing the per-chunk callback cost.
const DefaultChunkLen = 4096

// ChunkDecoder is implemented by codecs that can stream reconstructed
// values without materializing the whole field. DecodeChunks decodes the
// self-describing stream in compressed and yields consecutive windows of
// values: yield(off, vals) delivers the points [off, off+len(vals)) of the
// decoded field, with offsets strictly increasing and contiguous, covering
// [0, n) exactly when DecodeChunks returns nil.
//
// chunk, when non-empty, is the caller's working buffer; implementations
// decode into it and yield subslices of it. When chunk is empty the
// implementation uses its own pooled buffer of DefaultChunkLen values.
// Either way the yielded slice is only valid during the callback — it is
// overwritten by the next chunk — and the consumer may freely mutate its
// contents (the fill-mask wrapper relies on this to overlay sentinels).
// A non-nil error from yield aborts the decode and is returned unwrapped.
type ChunkDecoder interface {
	DecodeChunks(compressed []byte, chunk []float32, yield func(off int, vals []float32) error) error
}

// DecodeChunks streams the reconstructed values of compressed through
// yield, using c's native chunk decoder when it has one and a pooled
// whole-field fallback otherwise. See ChunkDecoder for the contract.
func DecodeChunks(c Codec, compressed []byte, chunk []float32, yield func(off int, vals []float32) error) error {
	if cd, ok := c.(ChunkDecoder); ok {
		return cd.DecodeChunks(compressed, chunk, yield)
	}
	return fallbackChunks(c, compressed, chunk, yield)
}

// fallbackChunks adapts a whole-field decode to the chunked contract: the
// field is decoded into a pooled buffer, windows of it are yielded, and the
// buffer is returned to the pool before the call returns — so peak heap is
// one pooled field per in-flight call rather than one per member held
// across the metrics pass.
func fallbackChunks(c Codec, compressed []byte, chunk []float32, yield func(off int, vals []float32) error) error {
	h, _, err := ParseHeader(compressed)
	if err != nil {
		return err
	}
	n := h.Shape.Len()
	full := GetFloats(n)
	defer PutFloats(full)
	vals, err := DecompressInto(c, full, compressed)
	if err != nil {
		return err
	}
	if len(vals) != n {
		// Defensive: every registered codec validates this itself.
		n = len(vals)
	}
	step := len(chunk)
	if step == 0 {
		step = DefaultChunkLen
	}
	for off := 0; off < n; off += step {
		end := off + step
		if end > n {
			end = n
		}
		w := vals[off:end]
		if len(chunk) != 0 {
			// Honor the contract that yielded values live in the caller's
			// buffer (and may be mutated without corrupting pooled state).
			copy(chunk, w)
			w = chunk[:len(w)]
		}
		if err := yield(off, w); err != nil {
			return err
		}
	}
	return nil
}

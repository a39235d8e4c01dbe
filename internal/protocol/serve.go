// Serving-tier wire messages: the prediction request/response frames spoken
// between surrogate clients and melissa-serve, plus the admin frames for
// checkpoint hot reload and server introspection. They share the client
// framing [payload length u32 | type u8 | payload] and the float32 wire
// discipline of the training messages.
//
// The hot pair follows the same lease–recycle contract as TimeStep:
// Reader.Next returns PredictRequest and PredictResponse messages as leased
// pointers whose payload slices are recycled through package freelists
// (LeasePredictRequest/RecyclePredictRequest and the Response mirrors), so a
// serving rank under load decodes requests and a closed-loop client decodes
// responses with zero steady-state allocations. The admin frames
// (ServeInfoRequest/ServeInfo, Reload/ReloadResult, PredictError) are rare
// and travel by value through the allocating path.
package protocol

import "math"

// Serving wire message types (continuing the MsgType space after the ring
// frames, which end at TypeRingPing = 8).
const (
	// TypePredictRequest asks the serving tier for one surrogate
	// evaluation: field(Params, T).
	TypePredictRequest MsgType = iota + 9
	// TypePredictResponse carries the predicted field for one request,
	// tagged with the checkpoint epoch that produced it.
	TypePredictResponse
	// TypePredictError reports a rejected request (wrong parameter count,
	// no model loaded) without tearing the connection down.
	TypePredictError
	// TypeServeInfoRequest asks the server to describe the loaded model.
	TypeServeInfoRequest
	// TypeServeInfo answers with the model's problem name, dimensions and
	// current checkpoint epoch.
	TypeServeInfo
	// TypeReload asks the server to hot-reload its checkpoint (admin).
	TypeReload
	// TypeReloadResult reports the outcome of a reload.
	TypeReloadResult
)

// PredictRequest asks for one surrogate evaluation: the design parameters
// (problem canonical order, float32 like every wire payload) and the
// physical time. ID is an opaque client-chosen correlation token echoed in
// the response. Responses are NOT guaranteed to arrive in request order —
// cache hits are answered inline while misses wait for a batch, and batches
// complete concurrently across workers — so a client pipelining more than
// one outstanding request on a connection must assign distinct IDs and
// correlate by them. Only a strictly synchronous client (one request in
// flight at a time) may leave the ID zero. Instances produced by
// Reader.Next are leased (see the package comment); their Params slice is
// only valid until RecyclePredictRequest.
//
// DeadlineMs is the caller's remaining latency budget in milliseconds,
// measured from server receipt (relative, so no clock synchronization is
// assumed). A server that cannot answer within the budget rejects the
// request with PredictErrExpired instead of computing an answer nobody is
// waiting for. The field rides as an optional trailing extension of the
// original frame layout: frames from older clients simply end after Params
// and decode with DeadlineMs == 0, which means "no deadline" — so old
// clients interoperate with new servers and vice versa.
type PredictRequest struct {
	ID         uint64
	T          float32
	Params     []float32
	DeadlineMs uint32
}

// Type implements Message.
func (PredictRequest) Type() MsgType { return TypePredictRequest }

func (m PredictRequest) encodeTo(buf []byte) []byte {
	buf = appendU64(buf, m.ID)
	buf = appendU32(buf, math.Float32bits(m.T))
	buf = appendF32s(buf, m.Params)
	return appendU32(buf, m.DeadlineMs)
}

// PredictResponse carries the predicted physical field for one request.
// Epoch identifies the checkpoint generation that produced it: it advances
// by one on every hot reload, so a client can tell old-model from new-model
// answers across a reload. Instances produced by Reader.Next are leased;
// the Field slice is only valid until RecyclePredictResponse.
type PredictResponse struct {
	ID    uint64
	Epoch uint32
	Field []float32
}

// Type implements Message.
func (PredictResponse) Type() MsgType { return TypePredictResponse }

func (m PredictResponse) encodeTo(buf []byte) []byte {
	buf = appendU64(buf, m.ID)
	buf = appendU32(buf, m.Epoch)
	return appendF32s(buf, m.Field)
}

// PredictError codes classify a rejection so clients can pick a recovery
// instead of parsing the message text. Code 0 is what frames from servers
// predating the field decode to, so it doubles as "unclassified".
const (
	// PredictErrGeneric: malformed request (wrong parameter count, no
	// model). Retrying the identical request will fail the same way.
	PredictErrGeneric uint32 = iota
	// PredictErrOverloaded: the server shed the request because its admit
	// queue was full. Transient — retry after RetryAfterMs, ideally on
	// another replica.
	PredictErrOverloaded
	// PredictErrExpired: the request's DeadlineMs budget elapsed before a
	// batch worker could compute it; the answer was never computed.
	PredictErrExpired
	// PredictErrDraining: the server is draining for shutdown and admits
	// nothing new. Retry on another replica.
	PredictErrDraining
)

// PredictError rejects one request (echoing its ID) with a reason, leaving
// the connection usable for further requests. Code classifies the
// rejection (see the PredictErr constants) and RetryAfterMs carries the
// server's backoff hint for PredictErrOverloaded. Both ride as an optional
// trailing extension: frames from older servers end after Msg and decode
// with Code == PredictErrGeneric, RetryAfterMs == 0.
type PredictError struct {
	ID           uint64
	Msg          string
	Code         uint32
	RetryAfterMs uint32
}

// Type implements Message.
func (PredictError) Type() MsgType { return TypePredictError }

func (m PredictError) encodeTo(buf []byte) []byte {
	buf = appendU64(buf, m.ID)
	buf = appendString(buf, m.Msg)
	buf = appendU32(buf, m.Code)
	return appendU32(buf, m.RetryAfterMs)
}

// ServeInfoRequest asks the serving tier to describe its loaded model.
type ServeInfoRequest struct{}

// Type implements Message.
func (ServeInfoRequest) Type() MsgType { return TypeServeInfoRequest }

func (ServeInfoRequest) encodeTo(buf []byte) []byte { return buf }

// ServeInfo describes the loaded surrogate — the registered problem name,
// the request parameter count, the flattened field length, and the current
// checkpoint epoch — plus a pressure snapshot so clients can see server
// load: the admit queue's depth and capacity, the monotonic shed /
// deadline-expired / slow-client-disconnect counters, and whether the
// server is draining for shutdown. The pressure block is an optional
// trailing extension; frames from older servers end after Epoch and decode
// with the block zeroed.
type ServeInfo struct {
	Problem   string
	ParamDim  uint32
	OutputDim uint32
	Epoch     uint32

	Queue       uint32 // admit queue depth at snapshot time
	QueueCap    uint32 // admit queue capacity (the shed threshold)
	Shed        uint64 // requests rejected PredictErrOverloaded/Draining
	Expired     uint64 // requests rejected PredictErrExpired
	SlowClients uint64 // connections torn down for not draining responses
	Draining    uint32 // 1 while Drain is in progress
}

// Type implements Message.
func (ServeInfo) Type() MsgType { return TypeServeInfo }

// serveInfoPressureBytes is the encoded size of ServeInfo's trailing
// pressure block; decoders parse the block only when it is present whole.
const serveInfoPressureBytes = 4 + 4 + 8 + 8 + 8 + 4

func (m ServeInfo) encodeTo(buf []byte) []byte {
	buf = appendString(buf, m.Problem)
	buf = appendU32(buf, m.ParamDim)
	buf = appendU32(buf, m.OutputDim)
	buf = appendU32(buf, m.Epoch)
	buf = appendU32(buf, m.Queue)
	buf = appendU32(buf, m.QueueCap)
	buf = appendU64(buf, m.Shed)
	buf = appendU64(buf, m.Expired)
	buf = appendU64(buf, m.SlowClients)
	return appendU32(buf, m.Draining)
}

// Reload asks the serving tier to hot-reload its checkpoint. An empty Path
// re-reads the server's configured checkpoint path; a non-empty one must
// name a file in that checkpoint's directory.
type Reload struct {
	Path string
}

// Type implements Message.
func (Reload) Type() MsgType { return TypeReload }

func (m Reload) encodeTo(buf []byte) []byte { return appendString(buf, m.Path) }

// ReloadResult reports a reload outcome: the (possibly unchanged) current
// epoch and an empty Msg on success, or the load error.
type ReloadResult struct {
	Epoch uint32
	Msg   string
}

// Type implements Message.
func (ReloadResult) Type() MsgType { return TypeReloadResult }

func (m ReloadResult) encodeTo(buf []byte) []byte {
	buf = appendU32(buf, m.Epoch)
	return appendString(buf, m.Msg)
}

// predictReqFree / predictRespFree recycle the leased serving payloads, like
// timeStepFree for ingestion. Capacity bounds retained memory; a recycle
// into a full freelist drops the payload.
var (
	predictReqFree  = make(chan *PredictRequest, 1024)
	predictRespFree = make(chan *PredictResponse, 1024)
)

// LeasePredictRequest returns a PredictRequest from the freelist (or a fresh
// one). Its Params slice retains the capacity of its previous use.
func LeasePredictRequest() *PredictRequest {
	select {
	case m := <-predictReqFree:
		return m
	default:
		return &PredictRequest{}
	}
}

// RecyclePredictRequest returns a leased PredictRequest to the freelist. The
// caller must not touch m or its Params slice afterwards. nil is ignored.
func RecyclePredictRequest(m *PredictRequest) {
	if m == nil {
		return
	}
	m.ID, m.T, m.DeadlineMs = 0, 0, 0
	select {
	case predictReqFree <- m:
	default:
	}
}

// LeasePredictResponse returns a PredictResponse from the freelist (or a
// fresh one). Its Field slice retains the capacity of its previous use.
func LeasePredictResponse() *PredictResponse {
	select {
	case m := <-predictRespFree:
		return m
	default:
		return &PredictResponse{}
	}
}

// RecyclePredictResponse returns a leased PredictResponse to the freelist.
// The caller must not touch m or its Field slice afterwards. nil is ignored.
func RecyclePredictResponse(m *PredictResponse) {
	if m == nil {
		return
	}
	m.ID, m.Epoch = 0, 0
	select {
	case predictRespFree <- m:
	default:
	}
}

// decodePredictRequestInto decodes a PredictRequest payload into m, reusing
// the capacity of its Params slice. The trailing DeadlineMs extension is
// optional: pre-extension frames end after Params and decode to 0.
func decodePredictRequestInto(m *PredictRequest, payload []byte) error {
	d := decoder{buf: payload}
	m.ID = d.u64()
	m.T = math.Float32frombits(d.u32())
	m.Params = d.f32sInto(m.Params[:0])
	m.DeadlineMs = d.optU32()
	return d.err
}

// decodePredictResponseInto decodes a PredictResponse payload into m,
// reusing the capacity of its Field slice.
func decodePredictResponseInto(m *PredictResponse, payload []byte) error {
	d := decoder{buf: payload}
	m.ID = d.u64()
	m.Epoch = d.u32()
	m.Field = d.f32sInto(m.Field[:0])
	return d.err
}

// decodeServeBody decodes the by-value serving message types (decodeBody
// dispatches here).
func decodeServeBody(typ MsgType, d *decoder) (Message, error) {
	switch typ {
	case TypePredictError:
		m := PredictError{ID: d.u64()}
		m.Msg = d.str()
		if d.err == nil && len(d.buf) >= 8 {
			m.Code = d.u32()
			m.RetryAfterMs = d.u32()
		}
		return m, d.err
	case TypeServeInfoRequest:
		return ServeInfoRequest{}, d.err
	case TypeServeInfo:
		m := ServeInfo{Problem: d.str(), ParamDim: d.u32(), OutputDim: d.u32(), Epoch: d.u32()}
		if d.err == nil && len(d.buf) >= serveInfoPressureBytes {
			m.Queue = d.u32()
			m.QueueCap = d.u32()
			m.Shed = d.u64()
			m.Expired = d.u64()
			m.SlowClients = d.u64()
			m.Draining = d.u32()
		}
		return m, d.err
	case TypeReload:
		return Reload{Path: d.str()}, d.err
	case TypeReloadResult:
		m := ReloadResult{Epoch: d.u32()}
		m.Msg = d.str()
		return m, d.err
	default:
		return nil, errUnknownType(typ)
	}
}

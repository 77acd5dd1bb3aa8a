#include "trace/trace.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/varint.hh"

namespace pipm
{

namespace
{

constexpr char traceMagic[5] = {'P', 'I', 'P', 'M', 'T'};
constexpr std::uint8_t traceVersion = 1;

// Sanity caps on header-declared sizes, so a garbage header cannot ask
// for absurd allocations before the checksum gets a chance to reject it.
constexpr std::uint64_t maxStreams = 32 * 4096;
constexpr std::uint64_t maxStringLen = 4096;

void
put8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
put16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Bounds-checked little-endian reads over the loaded file image. */
struct ByteCursor
{
    const std::uint8_t *p;
    const std::uint8_t *end;
    const std::string &path;

    void need(std::size_t n) const
    {
        fatal_if(static_cast<std::size_t>(end - p) < n, "trace file ",
                 path, " is truncated");
    }

    std::uint8_t get8()
    {
        need(1);
        return *p++;
    }

    std::uint16_t get16()
    {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(p[0]) |
                          static_cast<std::uint16_t>(p[1]) << 8;
        p += 2;
        return v;
    }

    std::uint32_t get32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        p += 4;
        return v;
    }

    std::uint64_t get64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        return v;
    }

    std::string getString(std::uint64_t len)
    {
        need(len);
        std::string s(reinterpret_cast<const char *>(p),
                      static_cast<std::size_t>(len));
        p += len;
        return s;
    }
};

void
validateMeta(const TraceMeta &meta, const std::string &what)
{
    fatal_if(meta.numHosts == 0 || meta.coresPerHost == 0, what,
             ": trace geometry must name at least one host and core");
    fatal_if(meta.numHosts * meta.coresPerHost > maxStreams, what,
             ": implausible stream count ",
             meta.numHosts * meta.coresPerHost);
    fatal_if(meta.pageBytes == 0 || meta.lineBytes == 0 ||
                 meta.pageBytes % meta.lineBytes != 0,
             what, ": page size must be a multiple of line size");
    // The flags byte spends 6 bits on the line index.
    fatal_if(meta.pageBytes / meta.lineBytes > 64, what,
             ": PIPMT v1 encodes at most 64 lines per page, got ",
             meta.pageBytes / meta.lineBytes);
    fatal_if(meta.name.size() > maxStringLen ||
                 meta.sourceFingerprint.size() > maxStringLen,
             what, ": oversized metadata strings");
}

} // namespace

TraceWriter::TraceWriter(TraceMeta meta) : meta_(std::move(meta))
{
    validateMeta(meta_, "TraceWriter");
    streams_.resize(meta_.streamCount());
}

void
TraceWriter::append(unsigned stream, const MemRef &ref)
{
    panic_if(stream >= streams_.size(), "trace stream ", stream,
             " out of range (", streams_.size(), " streams)");
    panic_if(ref.lineIdx >= meta_.pageBytes / meta_.lineBytes,
             "line index ", unsigned{ref.lineIdx},
             " exceeds trace geometry");
    Stream &s = streams_[stream];
    const std::uint8_t flags =
        static_cast<std::uint8_t>((ref.op == MemOp::write ? 1 : 0) |
                                  (ref.shared ? 2 : 0) |
                                  (ref.lineIdx << 2));
    put8(s.bytes, flags);
    std::int64_t &prev = s.prevPage[ref.shared ? 1 : 0];
    const std::int64_t page = static_cast<std::int64_t>(ref.page);
    putVarint(s.bytes, zigzagEncode(page - prev));
    prev = page;
    putVarint(s.bytes, ref.gap);
    ++s.records;
}

std::uint64_t
TraceWriter::records(unsigned stream) const
{
    panic_if(stream >= streams_.size(), "trace stream ", stream,
             " out of range");
    return streams_[stream].records;
}

std::uint64_t
TraceWriter::totalRecords() const
{
    std::uint64_t total = 0;
    for (const Stream &s : streams_)
        total += s.records;
    return total;
}

void
TraceWriter::writeTo(const std::string &path) const
{
    Fnv1a sum;
    std::uint64_t payloadBytes = 0;
    for (const Stream &s : streams_) {
        sum.put(s.bytes.data(), s.bytes.size());
        payloadBytes += s.bytes.size();
    }

    std::vector<std::uint8_t> header;
    header.reserve(128 + 16 * streams_.size());
    for (char c : traceMagic)
        put8(header, static_cast<std::uint8_t>(c));
    put8(header, traceVersion);
    put8(header, 0);  // reserved
    put32(header, meta_.numHosts);
    put32(header, meta_.coresPerHost);
    put32(header, meta_.pageBytes);
    put32(header, meta_.lineBytes);
    put64(header, meta_.sharedBytes);
    put64(header, meta_.privateBytesPerHost);
    put64(header, meta_.footprintBytes);
    put64(header, payloadBytes);
    put64(header, sum.digest());
    put16(header, static_cast<std::uint16_t>(meta_.name.size()));
    header.insert(header.end(), meta_.name.begin(), meta_.name.end());
    put16(header,
          static_cast<std::uint16_t>(meta_.sourceFingerprint.size()));
    header.insert(header.end(), meta_.sourceFingerprint.begin(),
                  meta_.sourceFingerprint.end());
    for (const Stream &s : streams_) {
        put64(header, s.records);
        put64(header, s.bytes.size());
    }

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        fatal_if(!out, "cannot open ", tmp, " for writing");
        out.write(reinterpret_cast<const char *>(header.data()),
                  static_cast<std::streamsize>(header.size()));
        for (const Stream &s : streams_)
            out.write(reinterpret_cast<const char *>(s.bytes.data()),
                      static_cast<std::streamsize>(s.bytes.size()));
        out.flush();
        fatal_if(!out, "short write to ", tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    fatal_if(ec, "cannot move ", tmp, " to ", path, ": ", ec.message());
}

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    fatal_if(!in, "cannot open trace file ", path);
    const std::streamsize bytes = in.tellg();
    std::vector<std::uint8_t> image(static_cast<std::size_t>(bytes));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(image.data()), bytes);
    fatal_if(!in, "short read from ", path);

    ByteCursor cur{image.data(), image.data() + image.size(), path_};
    cur.need(sizeof traceMagic + 2);
    fatal_if(std::memcmp(cur.p, traceMagic, sizeof traceMagic) != 0,
             path, " is not a PIPMT trace (bad magic)");
    cur.p += sizeof traceMagic;
    const std::uint8_t version = cur.get8();
    fatal_if(version != traceVersion, path,
             ": unsupported PIPMT version ", unsigned{version},
             " (this build reads version ", unsigned{traceVersion}, ")");
    cur.get8();  // reserved

    meta_.numHosts = cur.get32();
    meta_.coresPerHost = cur.get32();
    meta_.pageBytes = cur.get32();
    meta_.lineBytes = cur.get32();
    meta_.sharedBytes = cur.get64();
    meta_.privateBytesPerHost = cur.get64();
    meta_.footprintBytes = cur.get64();
    const std::uint64_t payloadBytes = cur.get64();
    checksum_ = cur.get64();
    const std::uint16_t nameLen = cur.get16();
    fatal_if(nameLen > maxStringLen, path, ": oversized workload name");
    meta_.name = cur.getString(nameLen);
    const std::uint16_t srcLen = cur.get16();
    fatal_if(srcLen > maxStringLen, path,
             ": oversized source fingerprint");
    meta_.sourceFingerprint = cur.getString(srcLen);
    validateMeta(meta_, path);

    descs_.resize(meta_.streamCount());
    std::uint64_t offset = 0;
    for (StreamDesc &d : descs_) {
        d.records = cur.get64();
        d.bytes = cur.get64();
        d.offset = offset;
        offset += d.bytes;
    }
    fatal_if(offset != payloadBytes, path,
             ": stream table sums to ", offset,
             " bytes but header declares ", payloadBytes);
    cur.need(payloadBytes);
    fatal_if(static_cast<std::uint64_t>(cur.end - cur.p) != payloadBytes,
             path, ": ", cur.end - cur.p - payloadBytes,
             " trailing bytes after payload");
    payload_.assign(cur.p, cur.p + payloadBytes);

    Fnv1a sum;
    sum.put(payload_.data(), payload_.size());
    fatal_if(sum.digest() != checksum_, path,
             ": payload checksum mismatch (expected ",
             hashHex(checksum_), ", got ", hashHex(sum.digest()), ")");
}

std::uint64_t
TraceReader::records(unsigned stream) const
{
    panic_if(stream >= descs_.size(), "trace stream ", stream,
             " out of range");
    return descs_[stream].records;
}

std::uint64_t
TraceReader::totalRecords() const
{
    std::uint64_t total = 0;
    for (const StreamDesc &d : descs_)
        total += d.records;
    return total;
}

std::uint64_t
TraceReader::streamBytes(unsigned stream) const
{
    panic_if(stream >= descs_.size(), "trace stream ", stream,
             " out of range");
    return descs_[stream].bytes;
}

std::vector<MemRef>
TraceReader::decodeStream(unsigned stream) const
{
    panic_if(stream >= descs_.size(), "trace stream ", stream,
             " out of range");
    const StreamDesc &d = descs_[stream];
    const std::uint8_t *p = payload_.data() + d.offset;
    const std::uint8_t *end = p + d.bytes;
    const unsigned linesPerPage = meta_.pageBytes / meta_.lineBytes;

    std::vector<MemRef> refs;
    refs.reserve(static_cast<std::size_t>(d.records));
    std::int64_t prevPage[2] = {0, 0};
    for (std::uint64_t i = 0; i < d.records; ++i) {
        fatal_if(p >= end, path_, ": stream ", stream,
                 " ends after ", i, " of ", d.records, " records");
        const std::uint8_t flags = *p++;
        MemRef ref;
        ref.op = (flags & 1) ? MemOp::write : MemOp::read;
        ref.shared = (flags & 2) != 0;
        ref.lineIdx = static_cast<std::uint8_t>(flags >> 2);
        fatal_if(ref.lineIdx >= linesPerPage, path_, ": stream ",
                 stream, " record ", i, " line index ",
                 unsigned{ref.lineIdx}, " exceeds geometry");

        std::uint64_t v = 0;
        std::size_t n = getVarint(p, end, v);
        fatal_if(n == 0, path_, ": stream ", stream,
                 " has a malformed page delta at record ", i);
        p += n;
        const std::int64_t page =
            prevPage[ref.shared ? 1 : 0] + zigzagDecode(v);
        fatal_if(page < 0, path_, ": stream ", stream,
                 " decodes a negative page index at record ", i);
        ref.page = static_cast<std::uint64_t>(page);
        prevPage[ref.shared ? 1 : 0] = page;

        n = getVarint(p, end, v);
        fatal_if(n == 0, path_, ": stream ", stream,
                 " has a malformed gap at record ", i);
        p += n;
        fatal_if(v > std::numeric_limits<std::uint16_t>::max(), path_,
                 ": stream ", stream, " gap ", v, " exceeds 16 bits");
        ref.gap = static_cast<std::uint16_t>(v);
        refs.push_back(ref);
    }
    fatal_if(p != end, path_, ": stream ", stream, " has ", end - p,
             " bytes of trailing garbage");
    return refs;
}

TraceWriter
mergeTraces(const std::vector<std::string> &inputs)
{
    fatal_if(inputs.empty(), "merge needs at least one input trace");

    std::vector<TraceReader> readers;
    readers.reserve(inputs.size());
    for (const std::string &path : inputs)
        readers.emplace_back(path);

    const TraceMeta &first = readers.front().meta();
    TraceMeta meta;
    meta.numHosts = first.numHosts;
    meta.coresPerHost = first.coresPerHost;
    meta.pageBytes = first.pageBytes;
    meta.lineBytes = first.lineBytes;
    std::string names;
    std::string sources;
    for (std::size_t i = 0; i < readers.size(); ++i) {
        const TraceMeta &m = readers[i].meta();
        fatal_if(m.numHosts != meta.numHosts ||
                     m.coresPerHost != meta.coresPerHost ||
                     m.pageBytes != meta.pageBytes ||
                     m.lineBytes != meta.lineBytes,
                 "merge input ", inputs[i],
                 " disagrees on geometry with ", inputs.front());
        meta.sharedBytes = std::max(meta.sharedBytes, m.sharedBytes);
        meta.privateBytesPerHost =
            std::max(meta.privateBytesPerHost, m.privateBytesPerHost);
        meta.footprintBytes =
            std::max(meta.footprintBytes, m.footprintBytes);
        if (i) {
            names += '+';
            sources += '+';
        }
        names += m.name;
        sources += hashHex(readers[i].checksum());
    }
    meta.name = "merge(" + names + ")";
    meta.sourceFingerprint = "merge;" + sources;
    validateMeta(meta, "mergeTraces");

    TraceWriter out(meta);
    for (unsigned s = 0; s < meta.streamCount(); ++s) {
        std::vector<std::vector<MemRef>> decoded;
        decoded.reserve(readers.size());
        for (const TraceReader &r : readers)
            decoded.push_back(r.decodeStream(s));
        // Round-robin in input order; exhausted inputs drop out, so the
        // interleave is a pure function of the inputs and their order.
        std::vector<std::size_t> cursor(decoded.size(), 0);
        bool any = true;
        while (any) {
            any = false;
            for (std::size_t i = 0; i < decoded.size(); ++i) {
                if (cursor[i] >= decoded[i].size())
                    continue;
                out.append(s, decoded[i][cursor[i]++]);
                any = true;
            }
        }
    }
    return out;
}

} // namespace pipm

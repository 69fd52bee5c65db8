#include "datablock/block_summary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/macros.h"

namespace datablocks {

namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

int64_t ConstInt(const Value& v) {
  DB_CHECK(!v.is_null());
  return v.kind() == Value::Kind::kDouble ? int64_t(v.f64()) : v.i64();
}

double ConstDouble(const Value& v) {
  DB_CHECK(!v.is_null());
  return v.kind() == Value::Kind::kInt ? double(v.i64()) : v.f64();
}

struct IntRange {
  int64_t lo, hi;
  bool empty() const { return lo > hi; }
};

IntRange OpToRange(CompareOp op, int64_t a, int64_t b) {
  switch (op) {
    case CompareOp::kEq: return {a, a};
    case CompareOp::kLt:
      return a == kI64Min ? IntRange{1, 0} : IntRange{kI64Min, a - 1};
    case CompareOp::kLe: return {kI64Min, a};
    case CompareOp::kGt:
      return a == kI64Max ? IntRange{1, 0} : IntRange{a + 1, kI64Max};
    case CompareOp::kGe: return {a, kI64Max};
    case CompareOp::kBetween: return {a, b};
    default: DB_CHECK(false); return {1, 0};
  }
}

/// Outcome of translating one predicate against a column summary.
enum class Verdict {
  kNone,  // provably no matching row in the block -> skip
  kPass,  // cannot rule the block out without its payload
};

/// `psma_range` is intersected with the PSMA probe result when the
/// predicate is a residual range on a PSMA-indexed, delta-addressable
/// column — mirroring the probe PrepareBlockScan would issue.
Verdict JudgeIntPred(const ColumnSummary& cs, const Predicate& pred,
                     bool use_psma, PsmaRange* psma_range) {
  const Compression scheme = Compression(cs.compression);
  const int64_t smin = cs.min_val, smax = cs.max_val;

  if (pred.op == CompareOp::kNe) {
    if (scheme == Compression::kSingleValue && smin == ConstInt(pred.lo))
      return Verdict::kNone;
    return Verdict::kPass;
  }

  if (pred.op == CompareOp::kIn) {
    // Skip only when every list value provably misses: outside [min, max],
    // or different from the single stored value. Dictionary misses inside
    // the range need the payload, so they pass.
    for (const Value& v : pred.list) {
      const int64_t iv = ConstInt(v);
      if (iv < smin || iv > smax) continue;
      if (scheme == Compression::kSingleValue && iv != smin) continue;
      return Verdict::kPass;
    }
    return Verdict::kNone;
  }

  IntRange r = OpToRange(pred.op, ConstInt(pred.lo),
                         pred.op == CompareOp::kBetween ? ConstInt(pred.hi)
                                                        : 0);
  if (r.empty()) return Verdict::kNone;
  if (r.hi < smin || r.lo > smax) return Verdict::kNone;  // SMA miss
  if (scheme == Compression::kSingleValue) {
    return (smin >= r.lo && smin <= r.hi) ? Verdict::kPass : Verdict::kNone;
  }
  if (r.lo <= smin && r.hi >= smax) return Verdict::kPass;  // range-covering

  // Residual range: the PSMA probe is reproducible summary-only for
  // truncation and raw integer storage (delta = value - min). Dictionary
  // codes would need the dictionary, which lives in the payload.
  if (use_psma && !cs.psma.empty() &&
      (scheme == Compression::kTruncation || scheme == Compression::kRaw)) {
    const uint64_t dlo = uint64_t(std::max(r.lo, smin)) - uint64_t(smin);
    const uint64_t dhi = uint64_t(std::min(r.hi, smax)) - uint64_t(smin);
    PsmaRange probe =
        PsmaProbe(cs.psma.data(), uint32_t(cs.psma.size()), dlo, dhi);
    psma_range->begin = std::max(psma_range->begin, probe.begin);
    psma_range->end = std::min(psma_range->end, probe.end);
  }
  return Verdict::kPass;
}

Verdict JudgeStringPred(const ColumnSummary& cs, const Predicate& pred) {
  const std::string& smin = cs.min_str;
  const std::string& smax = cs.max_str;

  if (Compression(cs.compression) == Compression::kSingleValue) {
    const std::string& v = smin;
    switch (pred.op) {
      case CompareOp::kEq: return v == pred.lo.str() ? Verdict::kPass : Verdict::kNone;
      case CompareOp::kNe: return v != pred.lo.str() ? Verdict::kPass : Verdict::kNone;
      case CompareOp::kLt: return v < pred.lo.str() ? Verdict::kPass : Verdict::kNone;
      case CompareOp::kLe: return v <= pred.lo.str() ? Verdict::kPass : Verdict::kNone;
      case CompareOp::kGt: return v > pred.lo.str() ? Verdict::kPass : Verdict::kNone;
      case CompareOp::kGe: return v >= pred.lo.str() ? Verdict::kPass : Verdict::kNone;
      case CompareOp::kBetween:
        return (v >= pred.lo.str() && v <= pred.hi.str()) ? Verdict::kPass
                                                          : Verdict::kNone;
      case CompareOp::kIn:
        for (const Value& c : pred.list)
          if (v == c.str()) return Verdict::kPass;
        return Verdict::kNone;
      case CompareOp::kPrefix:
        return v.compare(0, pred.lo.str().size(), pred.lo.str()) == 0
                   ? Verdict::kPass
                   : Verdict::kNone;
      default: DB_CHECK(false); return Verdict::kPass;
    }
  }

  switch (pred.op) {
    case CompareOp::kEq:
      if (pred.lo.str() < smin || pred.lo.str() > smax) return Verdict::kNone;
      return Verdict::kPass;
    case CompareOp::kNe:
      return Verdict::kPass;
    case CompareOp::kIn:
      for (const Value& c : pred.list)
        if (c.str() >= smin && c.str() <= smax) return Verdict::kPass;
      return Verdict::kNone;
    case CompareOp::kPrefix: {
      // Matching strings sort in [p, successor(p)): skip when the whole
      // block sorts below p, or when even the minimum's p-length prefix
      // already sorts above p.
      const std::string_view p = pred.lo.str();
      if (smax < p) return Verdict::kNone;
      if (std::string_view(smin).substr(0, p.size()) > p)
        return Verdict::kNone;
      return Verdict::kPass;
    }
    case CompareOp::kLt:
      return smin < pred.lo.str() ? Verdict::kPass : Verdict::kNone;
    case CompareOp::kLe:
      return smin <= pred.lo.str() ? Verdict::kPass : Verdict::kNone;
    case CompareOp::kGt:
      return smax > pred.lo.str() ? Verdict::kPass : Verdict::kNone;
    case CompareOp::kGe:
      return smax >= pred.lo.str() ? Verdict::kPass : Verdict::kNone;
    case CompareOp::kBetween:
      if (pred.lo.str() > pred.hi.str()) return Verdict::kNone;
      if (pred.hi.str() < smin || pred.lo.str() > smax) return Verdict::kNone;
      return Verdict::kPass;
    default:
      DB_CHECK(false);
      return Verdict::kPass;
  }
}

Verdict JudgeDoublePred(const ColumnSummary& cs, const Predicate& pred) {
  const double smin = std::bit_cast<double>(cs.min_val);
  const double smax = std::bit_cast<double>(cs.max_val);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (pred.op == CompareOp::kNe) {
    if (Compression(cs.compression) == Compression::kSingleValue &&
        smin == ConstDouble(pred.lo)) {
      return Verdict::kNone;
    }
    return Verdict::kPass;
  }

  if (pred.op == CompareOp::kIn) {
    const bool single =
        Compression(cs.compression) == Compression::kSingleValue;
    for (const Value& v : pred.list) {
      const double dv = ConstDouble(v);
      if (dv < smin || dv > smax) continue;
      if (single && dv != smin) continue;
      return Verdict::kPass;
    }
    return Verdict::kNone;
  }

  double lo = -kInf, hi = kInf;
  switch (pred.op) {
    case CompareOp::kEq: lo = hi = ConstDouble(pred.lo); break;
    case CompareOp::kLt: hi = std::nextafter(ConstDouble(pred.lo), -kInf); break;
    case CompareOp::kLe: hi = ConstDouble(pred.lo); break;
    case CompareOp::kGt: lo = std::nextafter(ConstDouble(pred.lo), kInf); break;
    case CompareOp::kGe: lo = ConstDouble(pred.lo); break;
    case CompareOp::kBetween:
      lo = ConstDouble(pred.lo);
      hi = ConstDouble(pred.hi);
      break;
    default: DB_CHECK(false);
  }
  if (lo > hi || hi < smin || lo > smax) return Verdict::kNone;
  if (Compression(cs.compression) == Compression::kSingleValue)
    return (smin >= lo && smin <= hi) ? Verdict::kPass : Verdict::kNone;
  return Verdict::kPass;
}

}  // namespace

BlockSummary BlockSummary::Extract(const DataBlock& block, bool keep_psma) {
  BlockSummary s;
  s.row_count_ = block.num_rows();
  s.cols_.resize(block.num_columns());
  for (uint32_t c = 0; c < block.num_columns(); ++c) {
    const AttrMeta& m = block.attr(c);
    ColumnSummary& cs = s.cols_[c];
    cs.type = m.type;
    cs.compression = m.compression;
    cs.flags = m.flags;
    cs.dict_count = m.dict_count;
    cs.min_val = m.min_val;
    cs.max_val = m.max_val;
    if (TypeId(m.type) == TypeId::kString && m.dict_count > 0) {
      cs.min_str = std::string(block.dict_string(c, 0));
      cs.max_str = std::string(block.dict_string(c, m.dict_count - 1));
    }
    if (keep_psma && m.psma_entries > 0) {
      const PsmaEntry* table = block.psma(c);
      cs.psma.assign(table, table + m.psma_entries);
    }
  }
  return s;
}

uint64_t BlockSummary::MemoryBytes() const {
  uint64_t total = sizeof(BlockSummary);
  for (const ColumnSummary& cs : cols_) {
    total += sizeof(ColumnSummary) + cs.min_str.size() + cs.max_str.size() +
             cs.psma.size() * sizeof(PsmaEntry);
  }
  return total;
}

namespace {

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadPod(const uint8_t* data, uint64_t size, uint64_t* pos) {
  DB_CHECK(*pos + sizeof(T) <= size);  // malformed summary blob
  T v;
  std::memcpy(&v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return v;
}

}  // namespace

void BlockSummary::AppendTo(std::vector<uint8_t>* out) const {
  AppendPod(out, row_count_);
  AppendPod(out, uint32_t(cols_.size()));
  for (const ColumnSummary& cs : cols_) {
    AppendPod(out, cs.type);
    AppendPod(out, cs.compression);
    AppendPod(out, cs.flags);
    AppendPod(out, uint8_t(0));
    AppendPod(out, cs.dict_count);
    AppendPod(out, cs.min_val);
    AppendPod(out, cs.max_val);
    AppendPod(out, uint32_t(cs.min_str.size()));
    AppendPod(out, uint32_t(cs.max_str.size()));
    AppendPod(out, uint32_t(cs.psma.size()));
    out->insert(out->end(), cs.min_str.begin(), cs.min_str.end());
    out->insert(out->end(), cs.max_str.begin(), cs.max_str.end());
    const uint8_t* p = reinterpret_cast<const uint8_t*>(cs.psma.data());
    out->insert(out->end(), p, p + cs.psma.size() * sizeof(PsmaEntry));
  }
}

BlockSummary BlockSummary::FromBytes(const uint8_t* data, uint64_t size) {
  BlockSummary s;
  uint64_t pos = 0;
  s.row_count_ = ReadPod<uint32_t>(data, size, &pos);
  const uint32_t ncols = ReadPod<uint32_t>(data, size, &pos);
  s.cols_.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnSummary& cs = s.cols_[c];
    cs.type = ReadPod<uint8_t>(data, size, &pos);
    cs.compression = ReadPod<uint8_t>(data, size, &pos);
    cs.flags = ReadPod<uint8_t>(data, size, &pos);
    (void)ReadPod<uint8_t>(data, size, &pos);
    cs.dict_count = ReadPod<uint32_t>(data, size, &pos);
    cs.min_val = ReadPod<int64_t>(data, size, &pos);
    cs.max_val = ReadPod<int64_t>(data, size, &pos);
    const uint32_t min_len = ReadPod<uint32_t>(data, size, &pos);
    const uint32_t max_len = ReadPod<uint32_t>(data, size, &pos);
    const uint32_t psma_entries = ReadPod<uint32_t>(data, size, &pos);
    DB_CHECK(pos + uint64_t(min_len) + max_len +
                 uint64_t(psma_entries) * sizeof(PsmaEntry) <=
             size);
    cs.min_str.assign(reinterpret_cast<const char*>(data + pos), min_len);
    pos += min_len;
    cs.max_str.assign(reinterpret_cast<const char*>(data + pos), max_len);
    pos += max_len;
    cs.psma.resize(psma_entries);
    if (psma_entries != 0) {  // an empty vector's data() may be null
      std::memcpy(cs.psma.data(), data + pos,
                  psma_entries * sizeof(PsmaEntry));
    }
    pos += uint64_t(psma_entries) * sizeof(PsmaEntry);
  }
  DB_CHECK(pos == size);
  return s;
}

SummaryScanPrep PrepareSummaryScan(const BlockSummary& summary,
                                   const std::vector<Predicate>& preds,
                                   bool use_psma) {
  SummaryScanPrep prep;
  PsmaRange range{0, summary.row_count()};

  for (const Predicate& p : preds) {
    DB_CHECK(p.col < summary.num_columns());
    const ColumnSummary& cs = summary.col(p.col);

    if (p.op == CompareOp::kIsNull) {
      if (cs.all_null()) continue;  // trivially true
      if (!cs.has_nulls()) {
        prep.skip = true;
        return prep;
      }
      continue;  // needs the NULL bitmap -> undecidable here
    }
    if (p.op == CompareOp::kIsNotNull) {
      if (cs.all_null()) {
        prep.skip = true;
        return prep;
      }
      continue;
    }
    if (cs.all_null()) {  // value predicates never match NULL
      prep.skip = true;
      return prep;
    }

    Verdict v;
    switch (TypeId(cs.type)) {
      case TypeId::kString:
        v = JudgeStringPred(cs, p);
        break;
      case TypeId::kDouble:
        v = JudgeDoublePred(cs, p);
        break;
      default:
        v = JudgeIntPred(cs, p, use_psma, &range);
        break;
    }
    if (v == Verdict::kNone) {
      prep.skip = true;
      return prep;
    }
    if (range.empty()) {  // intersected PSMA probe ranges are empty
      prep.skip = true;
      return prep;
    }
  }
  return prep;
}

}  // namespace datablocks

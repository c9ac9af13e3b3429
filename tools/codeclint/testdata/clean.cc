// codeclint fixture: the contract-compliant twin of hazards.cc — every
// member is encoded, decoded in encode order, digested, and signed, so
// the scan must stay silent.
#include <cstdint>
#include <vector>

using Bytes = std::vector<unsigned char>;

struct Voucher {
  uint64_t amount = 0;
  uint64_t serial = 0;

  Bytes Encode() const;
  uint64_t Id() const;
  uint64_t SigningDigest() const;
};

Bytes Voucher::Encode() const {
  Bytes out;
  out.push_back(static_cast<unsigned char>(amount));
  out.push_back(static_cast<unsigned char>(serial));
  return out;
}

Voucher DecodeVoucher(const Bytes& data) {
  Voucher v;
  v.amount = data.size() > 0 ? data[0] : 0;
  v.serial = data.size() > 1 ? data[1] : 0;
  return v;
}

uint64_t Voucher::Id() const {
  const Bytes bytes = Encode();
  uint64_t acc = 0;
  for (unsigned char b : bytes) acc = acc * 31 + b;
  return acc;
}

uint64_t Voucher::SigningDigest() const {
  return amount * 1000003 + serial;
}

// The execution root only reads signed members.
uint64_t ExecuteTransaction(const Voucher& v) {
  return v.amount + v.SigningDigest();
}

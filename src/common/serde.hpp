// Binary serialization used for operator-slice state transfer during
// migration. Sizes reported by BinaryWriter feed the migration cost model
// (state bytes -> transfer time) and the enforcer's state-transfer-
// minimizing slice selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace esh {

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void write_u32(std::uint32_t v) { write_raw(v); }
  void write_u64(std::uint64_t v) { write_raw(v); }
  void write_i64(std::int64_t v) { write_raw(v); }
  void write_f64(double v) { write_raw(v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  template <typename Tag>
  void write_id(Id<Tag> id) {
    write_u64(id.value());
  }

  void write_string(const std::string& s) {
    write_u64(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  void write_f64_span(std::span<const double> v) {
    write_u64(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::byte>& buffer() const { return buf_; }

 private:
  template <typename T>
  void write_raw(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::byte tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<std::byte> buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t read_u8() {
    check(1);
    return std::to_integer<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t read_u32() { return read_raw<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_raw<std::uint64_t>(); }
  std::int64_t read_i64() { return read_raw<std::int64_t>(); }
  double read_f64() { return read_raw<double>(); }
  bool read_bool() { return read_u8() != 0; }

  template <typename Tag>
  Id<Tag> read_id() {
    return Id<Tag>{read_u64()};
  }

  std::string read_string() {
    const auto n = read_u64();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<double> read_f64_vector() {
    const auto n = read_u64();
    // Divide instead of multiplying: n * sizeof(double) wraps for hostile n.
    if (n > remaining() / sizeof(double)) truncated();
    std::vector<double> v(n);
    std::memcpy(v.data(), data_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return v;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  // Compares against remaining(): pos_ + n wraps for hostile length
  // prefixes near 2^64.
  void check(std::uint64_t n) const {
    if (n > remaining()) truncated();
  }
  [[noreturn]] static void truncated() {
    throw std::out_of_range{"BinaryReader: truncated input"};
  }

  template <typename T>
  T read_raw() {
    static_assert(std::is_trivially_copyable_v<T>);
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace esh

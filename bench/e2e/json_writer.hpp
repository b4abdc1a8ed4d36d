// Minimal streaming JSON writer for the benchmark's reports: handles the
// commas and indentation, prints numbers with all their digits.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace ecnbench {

class JsonWriter {
public:
    JsonWriter(std::ostream& os, bool pretty) : os_(os), pretty_(pretty) {}

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    void key(std::string_view k) {
        separate();
        quoted(k);
        os_ << (pretty_ ? ": " : ":");
        afterKey_ = true;
    }

    void value(double v) {
        separate();
        if (!std::isfinite(v)) {
            os_ << "null";
            return;
        }
        // Shortest text that reads back as the same double.
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof buf, v);
        os_.write(buf, res.ptr - buf);
    }
    void value(std::uint64_t v) {
        separate();
        os_ << v;
    }
    void value(bool v) {
        separate();
        os_ << (v ? "true" : "false");
    }
    void value(std::string_view s) {
        separate();
        quoted(s);
    }
    void value(const char* s) { value(std::string_view(s)); }

    template <typename T>
    void field(std::string_view k, const T& v) {
        key(k);
        value(v);
    }

private:
    void open(char c) {
        separate();
        os_ << c;
        first_.push_back(true);
    }
    void close(char c) {
        const bool empty = first_.back();
        first_.pop_back();
        if (pretty_ && !empty) newline();
        os_ << c;
    }
    /// Comma and line break before a new element, nothing after a key.
    void separate() {
        if (afterKey_) {
            afterKey_ = false;
            return;
        }
        if (first_.empty()) return;
        if (!first_.back()) os_ << ',';
        first_.back() = false;
        if (pretty_) newline();
    }
    void newline() {
        os_ << '\n';
        for (std::size_t i = 0; i < first_.size(); ++i) os_ << "  ";
    }
    void quoted(std::string_view s) {
        os_ << '"';
        for (const char c : s) {
            if (c == '"' || c == '\\') os_ << '\\' << c;
            else if (c == '\n') os_ << "\\n";
            else if (static_cast<unsigned char>(c) < 0x20) os_ << ' ';
            else os_ << c;
        }
        os_ << '"';
    }

    std::ostream& os_;
    bool pretty_;
    bool afterKey_ = false;
    std::vector<bool> first_;
};

}  // namespace ecnbench

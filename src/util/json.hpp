// A minimal ordered JSON writer.
//
// The serialization substrate behind BuildReport::to_json
// (src/api/build_report) and the stats fingerprints the tests compare,
// instead of each hand-rolling `out << "\"key\": "` streams that drift
// apart. Deliberately tiny: objects, arrays, scalars, insertion
// order preserved, no parsing, no dependencies.
#pragma once

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace gsp {

class JsonWriter {
public:
    JsonWriter& begin_object() { return open('{'); }
    JsonWriter& end_object() { return close('}'); }
    JsonWriter& begin_array() { return open('['); }
    JsonWriter& end_array() { return close(']'); }

    /// Start a member inside an object; follow with a value or begin_*.
    JsonWriter& key(std::string_view name) {
        separate();
        write_string(name);
        out_ << ": ";
        pending_value_ = true;
        return *this;
    }

    JsonWriter& value(double v) {
        separate();
        if (std::isfinite(v)) {
            out_ << v;  // default ostream precision, as the benches always used
        } else {
            out_ << "null";  // "inf"/"nan" are not JSON
        }
        return *this;
    }
    JsonWriter& value(std::size_t v) {
        separate();
        out_ << v;
        return *this;
    }
    JsonWriter& value(int v) {
        separate();
        out_ << v;
        return *this;
    }
    JsonWriter& value(bool v) {
        separate();
        out_ << (v ? "true" : "false");
        return *this;
    }
    JsonWriter& value(std::string_view v) {
        separate();
        write_string(v);
        return *this;
    }
    JsonWriter& value(const char* v) { return value(std::string_view(v)); }

    /// key + scalar in one call.
    template <class T>
    JsonWriter& member(std::string_view name, T v) {
        key(name);
        return value(v);
    }

    [[nodiscard]] std::string str() const { return out_.str(); }

private:
    JsonWriter& open(char c) {
        separate();
        out_ << c;
        first_.push_back(true);
        return *this;
    }
    JsonWriter& close(char c) {
        first_.pop_back();
        out_ << c;
        return *this;
    }
    /// Comma placement: a value directly after key() never separates; any
    /// other value/opening in a container separates unless it is first.
    void separate() {
        if (pending_value_) {
            pending_value_ = false;
            return;
        }
        if (first_.empty()) return;
        if (first_.back()) {
            first_.back() = false;
        } else {
            out_ << ", ";
        }
    }
    void write_string(std::string_view s) {
        out_ << '"';
        for (const char c : s) {
            switch (c) {
                case '"': out_ << "\\\""; break;
                case '\\': out_ << "\\\\"; break;
                case '\n': out_ << "\\n"; break;
                case '\t': out_ << "\\t"; break;
                default: out_ << c;
            }
        }
        out_ << '"';
    }

    std::ostringstream out_;
    std::vector<bool> first_;     ///< per open container: no member yet?
    bool pending_value_ = false;  ///< key() emitted, value must not separate
};

}  // namespace gsp

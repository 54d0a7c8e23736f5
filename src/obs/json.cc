#include "obs/json.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace memfwd::obs
{

Json
Json::boolean(bool b)
{
    Json j;
    j.kind_ = Kind::boolean;
    j.bool_ = b;
    return j;
}

Json
Json::number(std::uint64_t v)
{
    Json j;
    j.kind_ = Kind::number;
    j.u64_ = v;
    return j;
}

Json
Json::real(double v)
{
    Json j;
    j.kind_ = Kind::real;
    j.real_ = v;
    return j;
}

Json
Json::string(std::string s)
{
    Json j;
    j.kind_ = Kind::string;
    j.str_ = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::object;
    return j;
}

bool
Json::asBool() const
{
    memfwd_assert(kind_ == Kind::boolean, "json: not a boolean");
    return bool_;
}

std::uint64_t
Json::asU64() const
{
    memfwd_assert(kind_ == Kind::number, "json: not an integer");
    return u64_;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::number)
        return double(u64_);
    memfwd_assert(kind_ == Kind::real, "json: not a number");
    return real_;
}

const std::string &
Json::asString() const
{
    memfwd_assert(kind_ == Kind::string, "json: not a string");
    return str_;
}

const std::vector<Json> &
Json::items() const
{
    memfwd_assert(kind_ == Kind::array, "json: not an array");
    return items_;
}

const std::map<std::string, Json> &
Json::fields() const
{
    memfwd_assert(kind_ == Kind::object, "json: not an object");
    return fields_;
}

Json &
Json::operator[](const std::string &key)
{
    if (kind_ == Kind::null)
        kind_ = Kind::object;
    memfwd_assert(kind_ == Kind::object, "json: [] on a non-object");
    return fields_[key];
}

void
Json::push(Json v)
{
    if (kind_ == Kind::null)
        kind_ = Kind::array;
    memfwd_assert(kind_ == Kind::array, "json: push on a non-array");
    items_.push_back(std::move(v));
}

bool
Json::has(const std::string &key) const
{
    return kind_ == Kind::object && fields_.count(key) != 0;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::object)
        return nullptr;
    auto it = fields_.find(key);
    return it == fields_.end() ? nullptr : &it->second;
}

namespace
{

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          case '\r':
            os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeReal(std::ostream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Keep reals syntactically distinct from integers so a reader sees
    // the kind.
    std::string s = buf;
    if (s.find_first_of(".eEn") == std::string::npos)
        s += ".0";
    os << s;
}

} // namespace

void
Json::write(std::ostream &os, int indent, int depth) const
{
    const std::string pad(std::size_t(indent) * (depth + 1), ' ');
    const std::string close_pad(std::size_t(indent) * depth, ' ');
    const char *nl = indent > 0 ? "\n" : "";
    const char *colon = indent > 0 ? ": " : ":";

    switch (kind_) {
      case Kind::null:
        os << "null";
        break;
      case Kind::boolean:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::number:
        os << u64_;
        break;
      case Kind::real:
        writeReal(os, real_);
        break;
      case Kind::string:
        writeEscaped(os, str_);
        break;
      case Kind::array: {
        if (items_.empty()) {
            os << "[]";
            break;
        }
        os << '[' << nl;
        bool first = true;
        for (const auto &v : items_) {
            if (!first)
                os << ',' << nl;
            first = false;
            os << pad;
            v.write(os, indent, depth + 1);
        }
        os << nl << close_pad << ']';
        break;
      }
      case Kind::object: {
        if (fields_.empty()) {
            os << "{}";
            break;
        }
        os << '{' << nl;
        bool first = true;
        for (const auto &[key, v] : fields_) {
            if (!first)
                os << ',' << nl;
            first = false;
            os << pad;
            writeEscaped(os, key);
            os << colon;
            v.write(os, indent, depth + 1);
        }
        os << nl << close_pad << '}';
        break;
      }
    }
}

std::string
Json::str(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

} // namespace memfwd::obs
